package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// A server that stays busy for a whole run never drains its queue. Its
// queue must still stop growing once it reaches its high-water mark: the
// consumed prefix is compacted before the backing array grows, so capacity
// stays within a small factor of MaxQueue and a warm server services
// messages without allocating.
func TestServerQueueBoundedWhenNeverDrained(t *testing.T) {
	e := NewEngine()
	var srv *Server[int]
	// Every service re-submits one message, so the queue holds a standing
	// backlog and never empties.
	srv = NewServer(e, func(m int) Cycle {
		srv.Submit(m + 1)
		return 10
	})
	const backlog = 100
	for i := 0; i < backlog; i++ {
		srv.Submit(i)
	}
	e.RunFor(100_000) // 10k services through a queue that never drains
	if srv.QueueLen() == 0 {
		t.Fatal("queue drained; the test needs a server that stays busy")
	}
	if hw := srv.MaxQueue(); hw != backlog {
		t.Fatalf("MaxQueue() = %d, want the standing backlog %d", hw, backlog)
	}
	if c := cap(srv.queue.buf); c > 2*srv.MaxQueue() {
		t.Fatalf("queue capacity %d after 10k services, want <= 2*MaxQueue (%d)", c, 2*srv.MaxQueue())
	}
	if avg := testing.AllocsPerRun(100, func() { e.RunFor(10_000) }); avg != 0 {
		t.Fatalf("warm never-draining server allocated %.1f times per 1k services, want 0", avg)
	}
}

// refEngine is the engine's ordering contract written as plainly as
// possible: every pending event is a closure keyed by an explicit
// (cycle, seq), and each step fires the minimum found by a linear search.
type refEngine struct {
	now   Cycle
	seq   uint64
	fired uint64
	pend  []refCell
}

type refCell struct {
	at  Cycle
	seq uint64
	fn  func()
}

func (r *refEngine) schedule(d Cycle, fn func()) {
	r.seq++
	r.pend = append(r.pend, refCell{at: r.now + d, seq: r.seq, fn: fn})
}

func (r *refEngine) run() {
	for len(r.pend) > 0 {
		best := 0
		for i, c := range r.pend {
			b := r.pend[best]
			if c.at < b.at || (c.at == b.at && c.seq < b.seq) {
				best = i
			}
		}
		c := r.pend[best]
		r.pend = append(r.pend[:best], r.pend[best+1:]...)
		r.now = c.at
		r.fired++
		c.fn()
	}
}

// refServer is Server's dispatch contract over refEngine closures: a submit
// to an idle server schedules a dispatch in the current cycle, each service
// reschedules after its cost, and a dispatch that finds the queue empty
// idles the server.
type refServer struct {
	r    *refEngine
	h    func(any) Cycle
	busy bool
	q    []any
}

func (s *refServer) submit(m any) {
	s.q = append(s.q, m)
	if !s.busy {
		s.busy = true
		s.r.schedule(0, s.dispatch)
	}
}

func (s *refServer) dispatch() {
	if len(s.q) == 0 {
		s.busy = false
		return
	}
	m := s.q[0]
	s.q = s.q[1:]
	s.r.schedule(s.h(m), s.dispatch)
}

// mixedAPI abstracts the four ways a model schedules work, so one random
// scenario can drive both the real engine and the reference.
type mixedAPI struct {
	now     func() Cycle
	closure func(d Cycle, fn func())
	event   func(d Cycle, fn func())
	deliver func(d Cycle, m int)
	submit  func(m int)
	serve   func(m int) Cycle // the server's handler, set by the scenario
}

// testEvent is a typed (non-closure) Event for the mixed-order test.
type testEvent struct{ fn func() }

func (ev *testEvent) Fire() { ev.fn() }

// firing is one observable step: an event body or a server service.
type firing struct {
	at Cycle
	id int // event id; server services are recorded as -id-1
}

// mixedScenario schedules count root events of random kinds and horizons.
// A third of the event bodies and server services schedule further work,
// so the interleaving depends on the exact firing order at every step. The
// returned trace fills in as the engine runs.
func mixedScenario(api *mixedAPI, seed int64, count int) *[]firing {
	rng := rand.New(rand.NewSource(seed))
	delays := []Cycle{0, 0, 1, 3, 16, 22, 100, 4095, 4097, 100_000}
	costs := []Cycle{0, 1, 4, 16, 22}
	trace := new([]firing)
	id := 0
	var act func(depth int)
	body := func(myID, depth int) func() {
		return func() {
			*trace = append(*trace, firing{at: api.now(), id: myID})
			if depth < 3 && rng.Intn(3) == 0 {
				act(depth + 1)
			}
		}
	}
	act = func(depth int) {
		myID := id
		id++
		d := delays[rng.Intn(len(delays))]
		switch rng.Intn(4) {
		case 0:
			api.closure(d, body(myID, depth))
		case 1:
			api.event(d, body(myID, depth))
		case 2:
			api.deliver(d, myID)
		case 3:
			api.submit(myID)
		}
	}
	api.serve = func(m int) Cycle {
		*trace = append(*trace, firing{at: api.now(), id: -m - 1})
		if rng.Intn(3) == 0 {
			act(2)
		}
		return costs[rng.Intn(len(costs))]
	}
	for i := 0; i < count; i++ {
		act(0)
	}
	return trace
}

// Closures, typed events, pooled deliveries and Server self-dispatch all
// share one cell representation and one sequence counter. Property: an
// arbitrary interleaving of them fires in exactly the (cycle, seq) order of
// the reference engine — same steps, same cycles, same total event count
// (server idle-outs included) and same final clock.
func TestMixedEventKindsFireInReferenceOrder(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		count := int(n%64) + 4

		e := NewEngine()
		var api mixedAPI
		srv := NewServer(e, func(m int) Cycle { return api.serve(m) })
		api = mixedAPI{
			now:     e.Now,
			closure: e.Schedule,
			event:   func(d Cycle, fn func()) { e.ScheduleEvent(d, &testEvent{fn}) },
			deliver: func(d Cycle, m int) { e.ScheduleEvent(d, srv.Deliver(m)) },
			submit:  func(m int) { srv.Submit(m) },
		}
		gotTrace := mixedScenario(&api, seed, count)
		end := e.Run()
		got := *gotTrace

		r := &refEngine{}
		var rapi mixedAPI
		rsrv := &refServer{r: r, h: func(m any) Cycle { return rapi.serve(m.(int)) }}
		rapi = mixedAPI{
			now:     func() Cycle { return r.now },
			closure: r.schedule,
			event:   r.schedule,
			deliver: func(d Cycle, m int) { r.schedule(d, func() { rsrv.submit(m) }) },
			submit:  func(m int) { rsrv.submit(m) },
		}
		wantTrace := mixedScenario(&rapi, seed, count)
		r.run()
		want := *wantTrace
		if len(got) == 0 {
			t.Logf("seed %d: no step recorded", seed)
			return false
		}

		if end != r.now || e.Fired() != r.fired || len(got) != len(want) {
			t.Logf("seed %d: end %d/%d fired %d/%d steps %d/%d",
				seed, end, r.now, e.Fired(), r.fired, len(got), len(want))
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: step %d is %+v, reference %+v", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A delivery that wakes an idle server with nothing else pending at its
// cycle runs the server's dispatch in the same Step, and Fired counts the
// dispatch as its own event. With another event pending at that cycle the
// dispatch is scheduled as usual and runs after it, and so does a dispatch
// woken by a Submit from inside a handler, after the rest of that handler.
func TestDeliverToIdleServerRunsInPlace(t *testing.T) {
	e := NewEngine()
	var log []string
	note := func(s string) { log = append(log, fmt.Sprintf("%s@%d", s, e.Now())) }
	srv := NewServer(e, func(m string) Cycle {
		note("serve " + m)
		return 5
	})
	expect := func(step string, fired uint64, want ...string) {
		t.Helper()
		if e.Fired() != fired || fmt.Sprint(log) != fmt.Sprint(want) {
			t.Fatalf("%s: fired %d, log %v; want fired %d, log %v", step, e.Fired(), log, fired, want)
		}
	}

	e.ScheduleEvent(10, srv.Deliver("a"))
	e.Step()
	expect("alone at its cycle", 2, "serve a@10")
	e.Run() // the service ends at 15 and the server idles out
	expect("drained", 3, "serve a@10")

	log = nil
	e.ScheduleEvent(10, srv.Deliver("b"))
	e.Schedule(10, func() { note("other") })
	e.Step()
	expect("another event pending", 4)
	e.Step()
	expect("the pending event", 5, "other@25")
	e.Step()
	expect("the scheduled dispatch", 6, "other@25", "serve b@25")
	e.Run()

	log = nil
	e.Schedule(10, func() {
		srv.Submit("c")
		note("after submit")
	})
	e.Run()
	expect("submit from a handler", 10, "after submit@40", "serve c@40")
}
