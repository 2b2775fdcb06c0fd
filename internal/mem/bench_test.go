package mem

import (
	"testing"

	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
)

// BenchmarkSystemFetch measures object-granular coherent fetches.
func BenchmarkSystemFetch(b *testing.B) {
	e := sim.NewEngine()
	net := noc.NewNetwork(e, noc.DefaultConfig())
	var coreNodes []noc.NodeID
	for i := 0; i < 16; i++ {
		coreNodes = append(coreNodes, net.AddCore("c"))
	}
	m := NewSystem(e, net, coreNodes)
	net.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Fetch(i%16, uint64(0x10000+(i%64)*0x10000), 16<<10, nil)
		if i%256 == 255 {
			e.Run()
		}
	}
	e.Run()
}
