package noc

import (
	"testing"
	"testing/quick"

	"tasksuperscalar/internal/sim"
)

func TestRingShortestDirection(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, "r", 8, Config{HopCycles: 1, LinkBytes: 16, SegConns: 4})
	// 0 -> 2: 2 hops clockwise.
	arr := r.Transfer(0, 2, 16, nil)
	if arr != 0+2+1 { // no overhead configured, 2 hops + 1 ser
		t.Fatalf("0->2 arrival = %d, want 3", arr)
	}
	// 0 -> 7: 1 hop counter-clockwise, not 7 clockwise.
	arr = r.Transfer(0, 7, 16, nil)
	if arr != 1+1 {
		t.Fatalf("0->7 arrival = %d, want 2", arr)
	}
}

func TestRingSerializationTime(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, "r", 4, Config{HopCycles: 1, LinkBytes: 16, SegConns: 4})
	// 64 bytes over 16B/cy links = 4 cycles serialization + 1 hop.
	if arr := r.Transfer(0, 1, 64, nil); arr != 5 {
		t.Fatalf("64B 1-hop arrival = %d, want 5", arr)
	}
	// zero-byte control message still takes >= 1 cycle (different pair so
	// point-to-point FIFO does not clamp it).
	if arr := r.Transfer(2, 3, 0, nil); arr != 2 {
		t.Fatalf("0B 1-hop arrival = %d, want 2", arr)
	}
}

func TestRingSegmentContention(t *testing.T) {
	e := sim.NewEngine()
	// One connection per segment: the second transfer over the same
	// segment must wait for the first to release it.
	r := NewRing(e, "r", 4, Config{HopCycles: 1, LinkBytes: 16, SegConns: 1})
	a1 := r.Transfer(0, 1, 160, nil) // occupies seg 0 for 10 cycles
	a2 := r.Transfer(0, 1, 160, nil)
	if a1 != 11 {
		t.Fatalf("first arrival = %d, want 11", a1)
	}
	if a2 < a1+10 {
		t.Fatalf("second transfer did not wait: arrival %d after first %d", a2, a1)
	}
	if r.ContentionCycles() == 0 {
		t.Fatal("expected contention cycles to be recorded")
	}
}

func TestRingConcurrentConnections(t *testing.T) {
	e := sim.NewEngine()
	// Four connections per segment: four simultaneous messages pass
	// unhindered, the fifth waits.
	// Use distinct source stops so same-pair FIFO does not serialize the
	// arrivals; all four share the segment between stops 3 and 0... use a
	// larger ring so four transfers share one segment via distinct pairs.
	r := NewRing(e, "r", 12, Config{HopCycles: 1, LinkBytes: 16, SegConns: 4})
	var arrivals []sim.Cycle
	// All five cross segment 5->6.
	for i := 0; i < 5; i++ {
		arrivals = append(arrivals, r.Transfer(5-i, 6, 160, nil))
	}
	for i := 0; i < 4; i++ {
		// i hops to reach segment 5, then 1 hop + 10 ser.
		want := sim.Cycle(i) + 1 + 10
		if arrivals[i] != want {
			t.Fatalf("transfer %d arrival = %d, want %d", i, arrivals[i], want)
		}
	}
	unloaded := sim.Cycle(4) + 1 + 10
	if arrivals[4] <= unloaded {
		t.Fatalf("fifth transfer must queue behind the 4-connection limit, got %d", arrivals[4])
	}
}

func TestRingDisjointSegmentsDontContend(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, "r", 8, Config{HopCycles: 1, LinkBytes: 16, SegConns: 1})
	a1 := r.Transfer(0, 1, 160, nil)
	a2 := r.Transfer(4, 5, 160, nil) // different segment
	if a1 != a2 {
		t.Fatalf("disjoint transfers should not contend: %d vs %d", a1, a2)
	}
}

func TestRingCallbackFires(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, "r", 4, DefaultConfig())
	var at sim.Cycle
	want := r.Transfer(0, 2, 32, sim.FuncEvent(func() { at = e.Now() }))
	e.Run()
	if at != want {
		t.Fatalf("callback at %d, want %d", at, want)
	}
}

func TestRingSameStop(t *testing.T) {
	e := sim.NewEngine()
	r := NewRing(e, "r", 4, Config{HopCycles: 1, LinkBytes: 16, SegConns: 4, RouterOver: 2})
	if arr := r.Transfer(3, 3, 64, nil); arr != 2 {
		t.Fatalf("same-stop arrival = %d, want router overhead 2", arr)
	}
}

func buildNet(t *testing.T, cores int) (*sim.Engine, *Network, []NodeID, []NodeID) {
	t.Helper()
	e := sim.NewEngine()
	n := NewNetwork(e, DefaultConfig())
	var coreIDs, globalIDs []NodeID
	for i := 0; i < cores; i++ {
		coreIDs = append(coreIDs, n.AddCore("core"))
	}
	for i := 0; i < 4; i++ {
		globalIDs = append(globalIDs, n.AddGlobalNode("l2"))
	}
	n.Build()
	return e, n, coreIDs, globalIDs
}

func TestNetworkSameLocalRing(t *testing.T) {
	e, n, cores, _ := buildNet(t, 16)
	done := false
	n.Send(cores[0], cores[1], 16, sim.FuncEvent(func() { done = true }))
	e.Run()
	if !done {
		t.Fatal("same-ring message not delivered")
	}
}

func TestNetworkCrossRing(t *testing.T) {
	e, n, cores, _ := buildNet(t, 16)
	var arrival sim.Cycle
	n.Send(cores[0], cores[9], 16, sim.FuncEvent(func() { arrival = e.Now() }))
	e.Run()
	if arrival == 0 {
		t.Fatal("cross-ring message not delivered")
	}
	// Must traverse local + global + local: strictly slower than same-ring.
	var sameRing sim.Cycle
	e2, n2, cores2, _ := buildNet(t, 16)
	n2.Send(cores2[0], cores2[1], 16, sim.FuncEvent(func() { sameRing = e2.Now() }))
	e2.Run()
	if arrival <= sameRing {
		t.Fatalf("cross-ring latency %d not greater than same-ring %d", arrival, sameRing)
	}
}

func TestNetworkCoreToGlobal(t *testing.T) {
	e, n, cores, globals := buildNet(t, 16)
	var up, down sim.Cycle
	n.Send(cores[3], globals[0], 64, sim.FuncEvent(func() { up = e.Now() }))
	e.Run()
	n.Send(globals[0], cores[3], 64, sim.FuncEvent(func() { down = e.Now() }))
	e.Run()
	if up == 0 || down == 0 {
		t.Fatal("core<->global messages not delivered")
	}
	if n.Messages() != 2 {
		t.Fatalf("Messages() = %d, want 2", n.Messages())
	}
	if n.AvgLatency() <= 0 {
		t.Fatal("AvgLatency must be positive")
	}
}

func TestNetworkGlobalToGlobal(t *testing.T) {
	e, n, _, globals := buildNet(t, 8)
	delivered := false
	n.Send(globals[0], globals[3], 64, sim.FuncEvent(func() { delivered = true }))
	e.Run()
	if !delivered {
		t.Fatal("global-global message not delivered")
	}
}

// A bridged send without a completion still books every ring on its route:
// the memory system's eviction writebacks are such sends, and traffic
// behind them must wait exactly as it would behind any other message.
func TestNetworkNilEventSendOccupiesRoute(t *testing.T) {
	// second returns when a 640-byte core 3 -> global 0 message arrives,
	// sent after first (or alone when first is false), and the network's
	// message count.
	second := func(first bool, firstEv sim.Event) (sim.Cycle, uint64) {
		e, n, cores, globals := buildNet(t, 16)
		if first {
			n.Send(cores[3], globals[0], 640, firstEv)
		}
		var at sim.Cycle
		n.Send(cores[3], globals[0], 640, sim.FuncEvent(func() { at = e.Now() }))
		e.Run()
		return at, n.Messages()
	}
	alone, _ := second(false, nil)
	behindEvent, _ := second(true, sim.FuncEvent(func() {}))
	behindNil, msgs := second(true, nil)
	if behindNil != behindEvent {
		t.Fatalf("behind a nil-event send the message arrives at %d, behind a send with an event at %d",
			behindNil, behindEvent)
	}
	if behindNil <= alone {
		t.Fatalf("behind a nil-event send the message arrives at %d, no later than alone (%d)",
			behindNil, alone)
	}
	if msgs != 2 {
		t.Fatalf("Messages() = %d, want 2", msgs)
	}
}

// Property: transfers always arrive, and arrival is no earlier than the
// unloaded latency (hops + serialization).
func TestRingLatencyLowerBoundProperty(t *testing.T) {
	f := func(from, to uint8, sz uint16) bool {
		e := sim.NewEngine()
		r := NewRing(e, "r", 16, Config{HopCycles: 1, LinkBytes: 16, SegConns: 4})
		f0, t0 := int(from%16), int(to%16)
		bytes := uint32(sz%4096) + 1
		arr := r.Transfer(f0, t0, bytes, nil)
		_, hops := r.route(f0, t0)
		minLat := sim.Cycle(hops) + r.serCycles(bytes)
		if hops == 0 {
			minLat = 0
		}
		return arr >= minLat
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes accounting matches what was sent.
func TestRingByteAccountingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := sim.NewEngine()
		r := NewRing(e, "r", 8, DefaultConfig())
		var want uint64
		for i, s := range sizes {
			b := uint32(s)
			r.Transfer(i%8, (i+3)%8, b, nil)
			want += uint64(b)
		}
		return r.Bytes() == want && r.Transfers() == uint64(len(sizes))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
