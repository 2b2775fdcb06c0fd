// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a cycle-granular clock and fires scheduled events in
// (time, insertion-order) order, which makes every simulation reproducible:
// two events scheduled for the same cycle always fire in the order they were
// scheduled. All timing in the repository is expressed in core clock cycles
// of the simulated 3.2 GHz CMP (see Table II of the paper).
//
// Every pending event is one Event: in a 24-byte calendar node that adds
// the index of the next event at its cycle, or in a far-heap cell that adds
// its cycle and a sequence number. Schedule takes a closure and stores it
// as a FuncEvent (a func value is pointer-shaped, so the conversion does
// not allocate); ScheduleEvent and ScheduleEventAt take
// any Event, which is how hot paths schedule pooled or self-firing objects
// — Server is the Event for its own dispatch, and Server.Deliver hands out
// delivery events recycled through the server's Pool. Scheduling a
// prebuilt closure or an Event therefore performs no allocation at all —
// see docs/ARCHITECTURE.md for the invariants hot senders rely on.
package sim

import "context"

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle = uint64

// Event is a typed simulation event: an object fired by the engine at its
// scheduled cycle. Implementations that are pooled must recycle themselves
// inside Fire (the engine drops its reference before calling it).
type Event interface {
	Fire()
}

// FuncEvent adapts a closure to Event. Schedule stores its closure this
// way; converting a func value to FuncEvent and on to Event does not
// allocate, so a prebuilt closure schedules (or completes a NoC send) for
// free.
type FuncEvent func()

// Fire implements Event.
func (f FuncEvent) Fire() { f() }

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	q    calQueue
	now  Cycle
	fire uint64 // events fired, for diagnostics
}

// NewEngine returns an engine with its clock at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fire }

// Pending returns the number of scheduled events that have not yet fired.
func (e *Engine) Pending() int { return e.q.len() }

// Schedule arranges for fn to run delay cycles from now. A zero delay runs
// fn later in the current cycle, after all previously scheduled work for
// this cycle.
func (e *Engine) Schedule(delay Cycle, fn func()) {
	e.q.schedule(e.now+delay, FuncEvent(fn))
}

// ScheduleEvent arranges for ev.Fire to run delay cycles from now, without
// allocating: the event reference is stored directly in the queue.
func (e *Engine) ScheduleEvent(delay Cycle, ev Event) {
	e.q.schedule(e.now+delay, ev)
}

// ScheduleEventAt is ScheduleEvent with an absolute cycle. Scheduling in
// the past is an error in the caller; the event fires immediately (at the
// current cycle) instead of time-travelling.
func (e *Engine) ScheduleEventAt(at Cycle, ev Event) {
	if at < e.now {
		at = e.now
	}
	e.q.schedule(at, ev)
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	at, ev := e.q.pop()
	e.now = at
	e.fire++
	ev.Fire()
	return true
}

// Run fires events until none remain, and returns the final cycle.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}

// DefaultCancelCheckCycles is the cancellation-poll granularity RunContext
// uses when the caller passes zero: fine enough that a cancelled multi-second
// run stops within milliseconds of wall time, coarse enough that the check is
// invisible in the event loop's profile.
const DefaultCancelCheckCycles Cycle = 1 << 16

// RunContext fires events until none remain or ctx is cancelled, polling
// ctx.Err once on entry, then after the first event fired at or beyond each
// checkEvery-cycle boundary (zero means DefaultCancelCheckCycles). So after
// a cancel the engine stops after the first event at or beyond the first
// poll boundary that follows it; when that event lies far past the
// boundary (a long task runtime), so does the returned clock. A dispatch
// step that a delivery runs in place fires within the delivery's Step.
// Cancellation is cooperative and strictly observational: the poll never
// reorders, drops, or injects events, so a run that is not cancelled is
// cycle-exact identical to Run — and because the poll piggybacks on the
// clock Step already advanced, the event loop pays one integer compare per
// event, never an extra queue inspection. On cancellation the clock stays
// at the last fired event and ctx.Err() is returned; the pending events are
// left in the queue (the caller abandons the simulation).
//
// A ctx that can never be cancelled (nil, or Done() == nil like
// context.Background()) skips the polling entirely and is exactly Run.
func (e *Engine) RunContext(ctx context.Context, checkEvery Cycle) (Cycle, error) {
	if ctx == nil || ctx.Done() == nil {
		return e.Run(), nil
	}
	if checkEvery == 0 {
		checkEvery = DefaultCancelCheckCycles
	}
	if err := ctx.Err(); err != nil {
		return e.now, err
	}
	next := e.now + checkEvery
	for e.Step() {
		if e.now >= next {
			if err := ctx.Err(); err != nil {
				return e.now, err
			}
			next = e.now + checkEvery
		}
	}
	return e.now, nil
}

// RunUntil fires events with timestamps <= limit and then advances the
// clock to limit (when it has not already passed it), whether or not events
// remain beyond the horizon. The returned clock never exceeds limit.
func (e *Engine) RunUntil(limit Cycle) Cycle {
	for {
		at, ok := e.q.peekAt()
		if !ok || at > limit {
			break
		}
		e.Step()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

// RunFor is shorthand for RunUntil(Now()+d).
func (e *Engine) RunFor(d Cycle) Cycle { return e.RunUntil(e.now + d) }
