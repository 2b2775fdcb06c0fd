package noc

import (
	"testing"

	"tasksuperscalar/internal/sim"
)

// BenchmarkRingTransfer measures control-message reservation cost.
func BenchmarkRingTransfer(b *testing.B) {
	e := sim.NewEngine()
	r := NewRing(e, "bench", 64, DefaultConfig())
	for i := 0; i < b.N; i++ {
		r.Transfer(i%64, (i*17+5)%64, 32, nil)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkNetworkCrossRing measures two-level routed sends.
func BenchmarkNetworkCrossRing(b *testing.B) {
	e := sim.NewEngine()
	n := NewNetwork(e, DefaultConfig())
	var cores []NodeID
	for i := 0; i < 64; i++ {
		cores = append(cores, n.AddCore("c"))
	}
	g := n.AddGlobalNode("g")
	n.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(cores[i%64], g, 32, nil)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}
