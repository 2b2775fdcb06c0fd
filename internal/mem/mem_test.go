package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
)

func TestDRAMChannelSerialization(t *testing.T) {
	e := sim.NewEngine()
	d := NewDRAM(e, DRAMConfig{Controllers: 1, ChannelsPerMC: 1, Latency: 100, BytesPerCycle: 2})
	done1 := d.Transfer(0, 200) // 100 cycles occupancy
	done2 := d.Transfer(0, 200)
	if done1 != 200 { // 100 latency + 100 occupancy
		t.Fatalf("first transfer done at %d, want 200", done1)
	}
	if done2 != 300 { // starts after first's occupancy (100), +100+100
		t.Fatalf("second transfer done at %d, want 300", done2)
	}
}

func TestDRAMChannelParallelism(t *testing.T) {
	e := sim.NewEngine()
	d := NewDRAM(e, DefaultDRAMConfig())
	if d.Channels() != 8 {
		t.Fatalf("channels = %d, want 8 (4 MC x 2)", d.Channels())
	}
	// Addresses in different 4KB frames map to different channels.
	done1 := d.Transfer(0, 4096)
	done2 := d.Transfer(4096, 4096)
	if done1 != done2 {
		t.Fatalf("independent channels should finish together: %d vs %d", done1, done2)
	}
}

func newTestSystem(t *testing.T, cores int) (*sim.Engine, *System) {
	t.Helper()
	e := sim.NewEngine()
	net := noc.NewNetwork(e, noc.DefaultConfig())
	var coreNodes []noc.NodeID
	for i := 0; i < cores; i++ {
		coreNodes = append(coreNodes, net.AddCore("core"))
	}
	m := NewSystem(e, net, coreNodes)
	net.Build()
	return e, m
}

func TestFetchColdThenWarm(t *testing.T) {
	e, m := newTestSystem(t, 4)
	var t1, t2 sim.Cycle
	m.Fetch(0, 0x10000, 16384, func() { t1 = e.Now() })
	e.Run()
	m.Fetch(0, 0x10000, 16384, func() { t2 = e.Now() - t1 })
	e.Run()
	if t1 == 0 {
		t.Fatal("cold fetch never completed")
	}
	if t2 != l1Latency {
		t.Fatalf("warm fetch took %d cycles, want L1 latency %d", t2, l1Latency)
	}
	s := m.Snapshot()
	if s.L1ObjHits != 1 {
		t.Fatalf("L1 object hits = %d, want 1", s.L1ObjHits)
	}
	if s.DRAMTransfers != 1 {
		t.Fatalf("DRAM transfers = %d, want 1 (first touch)", s.DRAMTransfers)
	}
}

func TestSecondCoreHitsL2(t *testing.T) {
	e, m := newTestSystem(t, 4)
	m.Fetch(0, 0x10000, 16384, nil)
	e.Run()
	m.Fetch(1, 0x10000, 16384, nil)
	e.Run()
	s := m.Snapshot()
	if s.DRAMTransfers != 1 {
		t.Fatalf("DRAM transfers = %d, want 1 (second core must hit L2)", s.DRAMTransfers)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	e, m := newTestSystem(t, 4)
	m.Fetch(0, 0x10000, 4096, nil)
	m.Fetch(1, 0x10000, 4096, nil)
	e.Run()
	done := false
	m.FetchExclusive(2, 0x10000, 4096, func() { done = true })
	e.Run()
	if !done {
		t.Fatal("exclusive fetch never completed")
	}
	s := m.Snapshot()
	if s.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", s.Invalidations)
	}
	if m.resident(0, 0x10000) || m.resident(1, 0x10000) {
		t.Fatal("sharer copies survived invalidation")
	}
}

func TestDirtyRecallOnFetch(t *testing.T) {
	e, m := newTestSystem(t, 4)
	m.AcquireWrite(0, 0x20000, 4096, nil)
	e.Run()
	got := false
	m.Fetch(1, 0x20000, 4096, func() { got = true })
	e.Run()
	if !got {
		t.Fatal("fetch after dirty copy never completed")
	}
	s := m.Snapshot()
	if s.Writebacks == 0 {
		t.Fatal("dirty recall must count a writeback")
	}
}

func TestL1CapacityEviction(t *testing.T) {
	e, m := newTestSystem(t, 2)
	// Fill the 64KB L1 with five 16KB objects: one must be evicted.
	for i := 0; i < 5; i++ {
		m.Fetch(0, uint64(0x100000+i*0x10000), 16384, nil)
		e.Run()
	}
	st := m.l1[0]
	if st.used > l1Bytes {
		t.Fatalf("L1 over capacity: %d > %d", st.used, l1Bytes)
	}
	if st.objs.Len() != 4 {
		t.Fatalf("expected 4 resident objects, got %d", st.objs.Len())
	}
	// The first-fetched object must be the evicted one (LRU).
	if m.resident(0, 0x100000) {
		t.Fatal("LRU object still resident")
	}
}

func TestHugeObjectBypassesL1(t *testing.T) {
	e, m := newTestSystem(t, 2)
	m.Fetch(0, 0x800000, 770<<10, nil) // SPECFEM-sized operand
	e.Run()
	if m.resident(0, 0x800000) {
		t.Fatal("object larger than L1 must not be cached")
	}
}

func TestWritebackMakesDataVisible(t *testing.T) {
	e, m := newTestSystem(t, 2)
	m.AcquireWrite(0, 0x30000, 8192, nil)
	e.Run()
	fin := false
	m.Writeback(0, 0x30000, 8192, func() { fin = true })
	e.Run()
	if !fin {
		t.Fatal("writeback never completed")
	}
	ent := m.dirRecs.At(*m.dir.Get(0x30000))
	if ent.owner != -1 || !ent.inL2 {
		t.Fatalf("directory after writeback: owner=%d inL2=%v", ent.owner, ent.inL2)
	}
}

func TestDMACopyInvalidatesDst(t *testing.T) {
	e, m := newTestSystem(t, 2)
	m.Fetch(0, 0x40000, 4096, nil)
	e.Run()
	done := false
	m.Copy(0x50000, 0x40000, 4096, sim.FuncEvent(func() { done = true }))
	e.Run()
	if !done {
		t.Fatal("DMA copy never completed")
	}
	if m.resident(0, 0x40000) {
		t.Fatal("stale destination copy survived DMA copy")
	}
	if m.Snapshot().DMACopies != 1 {
		t.Fatal("DMA copy not counted")
	}
}

// Property: the L1 object state never exceeds capacity and directory sharer
// lists stay consistent with residency, across random operation sequences.
func TestCoherenceInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		net := noc.NewNetwork(e, noc.DefaultConfig())
		cores := 4
		var coreNodes []noc.NodeID
		for i := 0; i < cores; i++ {
			coreNodes = append(coreNodes, net.AddCore("core"))
		}
		m := NewSystem(e, net, coreNodes)
		net.Build()
		for op := 0; op < 50; op++ {
			core := rng.Intn(cores)
			base := uint64(0x10000 * (1 + rng.Intn(8)))
			size := uint32(4096 * (1 + rng.Intn(4)))
			switch rng.Intn(4) {
			case 0:
				m.Fetch(core, base, size, nil)
			case 1:
				m.FetchExclusive(core, base, size, nil)
			case 2:
				m.AcquireWrite(core, base, size, nil)
			case 3:
				m.Writeback(core, base, size, nil)
			}
			e.Run()
		}
		for c := 0; c < cores; c++ {
			if m.l1[c].used > l1Bytes {
				return false
			}
			var sum uint64
			for _, o := range m.l1[c].objs.All() {
				sum += uint64(o.size)
			}
			if sum != m.l1[c].used {
				return false
			}
		}
		// Every owner in the directory must actually hold the object.
		ok := true
		for base, slot := range m.dir.All() {
			if ent := m.dirRecs.At(*slot); ent.owner >= 0 && m.l1[ent.owner].objs.Get(base) == nil {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
