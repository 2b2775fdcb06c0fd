package sim

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Cycle
	for _, d := range []Cycle{5, 3, 9, 3, 0, 7} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.Run()
	want := []Cycle{0, 3, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at delay %d, want %d (order %v)", i, got[i], want[i], got)
		}
	}
}

func TestEngineSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(4, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events out of schedule order: %v", got)
		}
	}
}

func TestEngineClockAdvances(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		if e.Now() != 10 {
			t.Errorf("Now() = %d inside event, want 10", e.Now())
		}
		e.Schedule(5, func() {
			if e.Now() != 15 {
				t.Errorf("nested Now() = %d, want 15", e.Now())
			}
		})
	})
	end := e.Run()
	if end != 15 {
		t.Fatalf("Run() = %d, want 15", end)
	}
	if e.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", e.Fired())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for _, d := range []Cycle{1, 2, 30} {
		e.Schedule(d, func() { fired++ })
	}
	e.RunUntil(10)
	if fired != 2 {
		t.Fatalf("RunUntil(10) fired %d events, want 2", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 3 {
		t.Fatalf("Run() after RunUntil fired %d total, want 3", fired)
	}
}

// Regression: after draining all events at or below the limit, the clock
// must advance to the limit — both when later events remain pending and
// when the queue is empty — so RunFor windows stack without drift.
func TestRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Schedule(500, func() {})
	if got := e.RunUntil(100); got != 100 {
		t.Fatalf("RunUntil(100) = %d with events pending, want 100", got)
	}
	if e.Now() != 100 {
		t.Fatalf("Now() = %d after RunUntil(100), want 100", e.Now())
	}
	// A relative schedule now counts from the horizon, not the last event.
	fired := Cycle(0)
	e.Schedule(10, func() { fired = e.Now() })
	e.RunUntil(400)
	if fired != 110 {
		t.Fatalf("event scheduled after RunUntil fired at %d, want 110", fired)
	}
	if e.Now() != 400 {
		t.Fatalf("Now() = %d after RunUntil(400), want 400", e.Now())
	}
	// Empty queue: the clock still advances to the limit.
	e.RunUntil(1000)
	if e.Now() != 1000 {
		t.Fatalf("Now() = %d after draining RunUntil(1000), want 1000", e.Now())
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	e := NewEngine()
	e.Schedule(20, func() {
		e.ScheduleEventAt(5, FuncEvent(func() {
			if e.Now() != 20 {
				t.Errorf("past event fired at %d, want clamped to 20", e.Now())
			}
		}))
	})
	e.Run()
}

// Property: for any random set of delays, events fire in nondecreasing time
// order and every event fires exactly once.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%64) + 1
		delays := make([]Cycle, count)
		var fireTimes []Cycle
		for i := 0; i < count; i++ {
			delays[i] = Cycle(rng.Intn(1000))
			d := delays[i]
			e.Schedule(d, func() { fireTimes = append(fireTimes, d) })
		}
		e.Run()
		if len(fireTimes) != count {
			return false
		}
		sorted := append([]Cycle(nil), delays...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			if fireTimes[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerSerializesWork(t *testing.T) {
	e := NewEngine()
	var done []Cycle
	srv := NewServer(e, func(m int) Cycle { return 10 })
	wrapped := NewServer(e, func(m int) Cycle { return 0 })
	_ = wrapped
	// Observe completion times via a second schedule inside the handler.
	srv2 := NewServer(e, func(m int) Cycle {
		e.Schedule(10, func() { done = append(done, e.Now()) })
		return 10
	})
	for i := 0; i < 3; i++ {
		srv2.Submit(i)
	}
	e.Run()
	want := []Cycle{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %d, want %d (%v)", i, done[i], want[i], done)
		}
	}
	if srv2.Served() != 3 {
		t.Fatalf("Served() = %d, want 3", srv2.Served())
	}
	if srv2.BusyCycles() != 30 {
		t.Fatalf("BusyCycles() = %d, want 30", srv2.BusyCycles())
	}
	_ = srv
}

func TestServerQueueStats(t *testing.T) {
	e := NewEngine()
	srv := NewServer(e, func(m int) Cycle { return 100 })
	for i := 0; i < 5; i++ {
		srv.Submit(i)
	}
	e.RunUntil(0)
	if srv.MaxQueue() != 5 {
		t.Fatalf("MaxQueue() = %d, want 5", srv.MaxQueue())
	}
	e.Run()
	if srv.QueueLen() != 0 {
		t.Fatalf("QueueLen() = %d after drain, want 0", srv.QueueLen())
	}
}

// refEvent mirrors one scheduled event for the reference ordering.
type refEvent struct {
	at  Cycle
	seq uint64
	id  int
}

// Property: the calendar queue pops in exactly the (at, seq) order of a
// reference sort, for arbitrary interleavings of near-window, far-horizon
// and same-cycle schedules — including schedules issued from inside fired
// events (which is how the rebasing and scan-rewind paths get exercised).
func TestCalendarQueueMatchesReference(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%512) + 8
		// Delay menu spans same-cycle bursts, the bucket window, window
		// boundaries and deep far-heap horizons.
		delays := []Cycle{0, 1, 3, 16, 22, 100, 1023, 4095, 4096, 4097, 12_000, 100_000, 1 << 21}
		var ref []refEvent
		var got []int
		id := 0
		var seq uint64
		var schedule func(depth int)
		schedule = func(depth int) {
			d := delays[rng.Intn(len(delays))]
			myID := id
			id++
			seq++
			ref = append(ref, refEvent{at: e.Now() + d, seq: seq, id: myID})
			e.Schedule(d, func() {
				got = append(got, myID)
				// A third of events schedule more work when firing.
				if depth < 3 && rng.Intn(3) == 0 {
					schedule(depth + 1)
				}
			})
		}
		for i := 0; i < count; i++ {
			schedule(0)
		}
		e.Run()
		if len(got) != len(ref) {
			return false
		}
		// The reference order is computed incrementally: events appended
		// during execution carry the at/seq observed at schedule time, so
		// a stable (at, seq) sort reproduces the contract exactly.
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].at != ref[j].at {
				return ref[i].at < ref[j].at
			}
			return ref[i].seq < ref[j].seq
		})
		for i := range ref {
			if got[i] != ref[i].id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCalendarQueueFarCellsBeyondWindow checks the calendar queue's
// invariant after every Step, over random schedules from outside and
// inside events, past-cycle schedules that clamp, and RunFor jumps (the
// only way the clock moves without a pop): every far cell lies at or
// beyond winStart+calWindow, and the clock never falls below winStart.
func TestCalendarQueueFarCellsBeyondWindow(t *testing.T) {
	delays := []Cycle{0, 1, 7, 100, 4095, 4096, 4097, 9000, 50_000, 1 << 20}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		check := func(op int) {
			q := &e.q
			if e.now < q.winStart {
				t.Fatalf("seed %d op %d: clock %d below window start %d", seed, op, e.now, q.winStart)
			}
			for _, c := range q.far.h {
				if c.at < q.winStart+calWindow {
					t.Fatalf("seed %d op %d: far cell at %d inside window [%d, %d)", seed, op, c.at, q.winStart, q.winStart+calWindow)
				}
			}
		}
		var fire func()
		fire = func() {
			if rng.Intn(3) == 0 {
				e.Schedule(delays[rng.Intn(len(delays))], fire)
			}
		}
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				e.Schedule(delays[rng.Intn(len(delays))], fire)
			case r < 6:
				at := e.now + delays[rng.Intn(len(delays))]
				e.ScheduleEventAt(at-min(at, delays[rng.Intn(len(delays))]), FuncEvent(fire))
			case r < 7:
				e.RunFor(delays[rng.Intn(len(delays))])
			default:
				e.Step()
			}
			check(op)
		}
		for op := 400; e.Step(); op++ {
			check(op)
		}
	}
}

// The steady-state schedule/pop path must not allocate: closure cells and
// typed events are stored directly in calendar buckets, and delivery events
// recycle through the server's free list.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	count := 0
	fn := func() { count++ }
	sink := NewServer(e, func(int) Cycle { return 4 })
	// Warm bucket storage (every slot of the calendar ring), free lists
	// and server queues — the state any engine reaches moments into a run.
	for i := 0; i < 2*int(calWindow); i++ {
		e.Schedule(Cycle(i), fn)
		if i%16 == 0 {
			e.ScheduleEvent(Cycle(i), sink.Deliver(7))
		}
	}
	e.Run()
	if avg := testing.AllocsPerRun(500, func() {
		e.Schedule(3, fn)
		e.Schedule(250, fn)
		e.ScheduleEvent(17, sink.Deliver(7))
		e.Run()
	}); avg != 0 {
		t.Fatalf("steady-state schedule/pop allocated %.1f times per run, want 0", avg)
	}
}

// freshEngine keeps each engine of TestCalendarQueueGrowsWithUse on the
// heap, where a run's engine lives.
var freshEngine *Engine

// TestCalendarQueueGrowsWithUse pins that an engine allocates for the
// events it holds, not for its whole calendar window: a fresh engine that
// schedules and runs 100 near events allocates under 64 KiB, 32 KiB of it
// the window's per-cycle index. A calendar that carved a seed slab for
// every cycle of the window up front allocated about 640 KiB.
func TestCalendarQueueGrowsWithUse(t *testing.T) {
	const engines = 20
	fn := func() {}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range engines {
		freshEngine = NewEngine()
		for i := range 100 {
			freshEngine.Schedule(Cycle(i%37), fn)
		}
		freshEngine.Run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / engines
	t.Logf("a fresh engine running 100 near events allocated %d B", per)
	if per >= 64<<10 {
		t.Fatalf("a fresh engine running 100 near events allocated %d B, want under 64 KiB", per)
	}
}

// Property: a serial server processing k messages of fixed cost c finishes at
// exactly k*c regardless of submission pattern within cycle 0.
func TestServerThroughputProperty(t *testing.T) {
	f := func(k uint8, c uint8) bool {
		e := NewEngine()
		cost := Cycle(c%50) + 1
		n := int(k%32) + 1
		srv := NewServer(e, func(int) Cycle { return cost })
		for i := 0; i < n; i++ {
			srv.Submit(i)
		}
		end := e.Run()
		return end == Cycle(n)*cost
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// RunContext with a never-cancellable context must be exactly Run: same
// final clock, same fired count, same event order.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	build := func() (*Engine, *[]Cycle) {
		e := NewEngine()
		var got []Cycle
		for _, d := range []Cycle{5, 3, 9, 3, 0, 70000, 7, 200000} {
			d := d
			e.Schedule(d, func() {
				got = append(got, d)
				if d == 3 {
					e.Schedule(100000, func() { got = append(got, 100003) })
				}
			})
		}
		return e, &got
	}

	ref, refGot := build()
	refEnd := ref.Run()

	e, got := build()
	end, err := e.RunContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if end != refEnd || e.Fired() != ref.Fired() {
		t.Fatalf("RunContext end=%d fired=%d, Run end=%d fired=%d",
			end, e.Fired(), refEnd, ref.Fired())
	}
	if len(*got) != len(*refGot) {
		t.Fatalf("RunContext fired %d events, Run fired %d", len(*got), len(*refGot))
	}
	for i := range *refGot {
		if (*got)[i] != (*refGot)[i] {
			t.Fatalf("event %d: RunContext order %v, Run order %v", i, *got, *refGot)
		}
	}
}

// A cancellable-but-never-cancelled context must not perturb the run either
// (cancellation polling is observational), at any poll granularity.
func TestRunContextUncancelledIsDeterministic(t *testing.T) {
	run := func(every Cycle) (Cycle, uint64) {
		e := NewEngine()
		for i := Cycle(0); i < 500; i++ {
			i := i
			e.Schedule(i*137, func() {
				if i%3 == 0 {
					e.Schedule(i*31+1, func() {})
				}
			})
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		end, err := e.RunContext(ctx, every)
		if err != nil {
			t.Fatal(err)
		}
		return end, e.Fired()
	}
	refEnd, refFired := run(0)
	for _, every := range []Cycle{1, 7, 1000, 1 << 20} {
		end, fired := run(every)
		if end != refEnd || fired != refFired {
			t.Fatalf("checkEvery=%d: end=%d fired=%d, want end=%d fired=%d",
				every, end, fired, refEnd, refFired)
		}
	}
}

// With an event every poll interval, cancellation stops the loop within one
// interval of simulated time and returns the context's error with the clock
// parked at the last fired event.
func TestRunContextCancelStopsWithinInterval(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired []Cycle
	for i := Cycle(0); i < 100; i++ {
		i := i
		e.Schedule(i*1000, func() {
			fired = append(fired, i*1000)
			if i == 10 {
				cancel()
			}
		})
	}
	end, err := e.RunContext(ctx, 1000)
	if err != context.Canceled {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	// The cancel lands at cycle 10000; the next poll boundary is at most
	// one interval later, so no event beyond 11000 may have fired.
	if end > 11000 {
		t.Fatalf("engine ran to %d after cancellation at 10000 (poll every 1000)", end)
	}
	if e.Pending() == 0 {
		t.Fatal("cancelled run should leave pending events in the queue")
	}
	if got := fired[len(fired)-1]; Cycle(end) != got {
		t.Fatalf("clock %d not parked at last fired event %d", end, got)
	}
}

// RunContext's contract: after a cancel, the engine stops after the first
// event at or beyond the first poll boundary that follows it, however far
// past the boundary that event lies. Here the cancel lands at 10,000 just
// after the poll there, so the next boundary is 11,000; the next event is
// at 50,000, so it fires and the run returns there, with the event at
// 60,000 still pending.
func TestRunContextCancelStopsAtFirstEventPastBoundary(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired []Cycle
	tick := func() { fired = append(fired, e.Now()) }
	for at := Cycle(1000); at <= 10_000; at += 1000 {
		e.Schedule(at, tick)
	}
	e.Schedule(10_000, cancel)
	e.Schedule(50_000, tick)
	e.Schedule(60_000, tick)
	end, err := e.RunContext(ctx, 1000)
	if err != context.Canceled {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if end != 50_000 || fired[len(fired)-1] != 50_000 {
		t.Fatalf("run stopped at %d after firing %v, want 50000 with the event there fired", end, fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the event at 60000 left", e.Pending())
	}
}

// A context cancelled before the run starts must fire nothing beyond the
// first poll window.
func TestRunContextPreCancelled(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Schedule(0, func() { n++ })
	e.Schedule(DefaultCancelCheckCycles+1, func() { n++ })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.RunContext(ctx, 0)
	if err != context.Canceled {
		t.Fatalf("RunContext error = %v, want context.Canceled", err)
	}
	if n > 1 {
		t.Fatalf("fired %d events after pre-cancelled context, want at most the first window", n)
	}
}
