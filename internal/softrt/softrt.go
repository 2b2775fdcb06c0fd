// Package softrt models the StarSs software runtime that the paper uses as
// its baseline (Figure 16): a serialized software dependency decoder with an
// effectively infinite task window. The decoder's measured rate — just over
// 700 ns per task on a 2.66 GHz Core Duo (§II) — is the entire model; the
// decoded tasks run on the same execution backend as the hardware pipeline,
// so the comparison isolates decode scalability exactly as the paper does.
package softrt

import (
	"tasksuperscalar/internal/core"
	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// The software runtime's costs, in core cycles at 3.2 GHz, calibrate the
// decoder to the paper's 700 ns/task. decodeBase + decodePerOp*operands is
// charged per task on the decoder thread, ~2240 cycles (700 ns) for a
// 4-operand task, after the generating thread's packing cost
// (core.GenBaseCycles + core.GenPerOpCycles*operands). wakeupCycles is
// charged per dependent made ready at task completion.
const (
	decodeBase   sim.Cycle = 1340
	decodePerOp  sim.Cycle = 225
	wakeupCycles sim.Cycle = 60
)

// record tracks one decoded task in the software dependency graph.
type record struct {
	rt      *core.ReadyTask // nil once the task finished
	pending int32
	seen    int32 // stamp of the last admission that listed this task as a predecessor
	succs   []int32
	done    bool
}

// objState is the decoder's per-object renaming state (StarSs renames too,
// so WaR/WaW do not serialize).
type objState struct {
	lastWriter       int32
	readersSinceLast []int32
}

// Runtime is the software decoder: a single serialized thread that pops
// tasks from the stream, resolves dependencies in software, and feeds the
// shared backend. Its window is unbounded.
//
// A task allocates only for what it adds to the dependency graph (its edge
// lists) or to a window larger than any before it: records and object
// states live in arenas (a task's record is its sequence number's slot),
// dispatch records come back through Release to a free list, and decodes
// and wakeups are scheduled as prebuilt or pooled events.
type Runtime struct {
	eng *sim.Engine

	stream     taskmodel.Stream
	dispatcher Dispatcher
	node       noc.NodeID

	recs    sim.Arena[record]
	objs    map[taskmodel.Addr]*objState
	states  sim.Arena[objState] // objs' values
	decoded uint64
	retired uint64

	// cur is the task being decoded; decodeFn is built once so the
	// per-task decode schedules no new closure.
	cur      *taskmodel.Task
	decodeFn func()

	preds      []int32             // admit's predecessor list, reused
	readyTasks []*core.ReadyTask   // released dispatch records
	wakes      sim.Pool[wakeEvent] // pending wakeups' events

	firstDecode sim.Cycle
	lastDecode  sim.Cycle

	windowCur int64
	windowMax int64
}

// Dispatcher is what the software runtime needs from the backend.
type Dispatcher interface {
	TaskReady(rt *core.ReadyTask)
}

// New creates a software runtime decoding stream onto d. node is the core
// the decoder thread runs on (used as the completion-notification target).
func New(eng *sim.Engine, stream taskmodel.Stream, d Dispatcher, node noc.NodeID) *Runtime {
	r := &Runtime{
		eng:        eng,
		stream:     stream,
		dispatcher: d,
		node:       node,
		objs:       make(map[taskmodel.Addr]*objState),
	}
	r.decodeFn = r.decodeDone
	return r
}

// Start begins decoding.
func (r *Runtime) Start() { r.decodeNext() }

func (r *Runtime) decodeNext() {
	t := r.stream.Next()
	if t == nil {
		return
	}
	r.cur = t
	cost := core.GenBaseCycles + decodeBase +
		(core.GenPerOpCycles+decodePerOp)*sim.Cycle(t.NumOperands())
	r.eng.Schedule(cost, r.decodeFn)
}

// decodeDone ends the decode of the current task: admit it, start the next.
func (r *Runtime) decodeDone() {
	t := r.cur
	r.cur = nil
	r.admit(t)
	r.decodeNext()
}

// admit resolves the task's dependencies against the software object state
// (renamed semantics: pure outputs do not serialize against earlier users).
func (r *Runtime) admit(t *taskmodel.Task) {
	idx := int32(r.recs.Len())
	stamp := idx + 1 // a fresh record's seen is 0, which no admission uses
	preds := r.preds[:0]
	for _, op := range t.Operands {
		if op.Dir == taskmodel.Scalar {
			continue
		}
		s := r.objs[op.Base]
		if s == nil {
			_, s = r.states.Alloc()
			s.lastWriter = -1
			r.objs[op.Base] = s
		}
		if op.Dir.Reads() && s.lastWriter >= 0 {
			preds = r.notePred(preds, s.lastWriter, stamp)
		}
		if op.Dir == taskmodel.InOut {
			for _, rd := range s.readersSinceLast {
				if rd != idx {
					preds = r.notePred(preds, rd, stamp)
				}
			}
		}
	}
	for _, op := range t.Operands {
		if op.Dir == taskmodel.Scalar {
			continue
		}
		s := r.objs[op.Base]
		if op.Dir.Writes() {
			s.lastWriter = idx
			s.readersSinceLast = s.readersSinceLast[:0]
		}
		s.readersSinceLast = append(s.readersSinceLast, idx)
	}
	_, rec := r.recs.Alloc()
	*rec = record{rt: r.makeReady(t)}
	// Each predecessor's successor list gains idx once, so every list stays
	// in admission order whatever the order of preds.
	for _, p := range preds {
		if pred := r.recs.At(uint32(p)); !pred.done {
			rec.pending++
			pred.succs = append(pred.succs, idx)
		}
	}
	r.preds = preds
	now := r.eng.Now()
	if r.decoded == 0 {
		r.firstDecode = now
	}
	r.lastDecode = now
	r.decoded++
	r.windowCur++
	if r.windowCur > r.windowMax {
		r.windowMax = r.windowCur
	}
	if rec.pending == 0 {
		r.ready(rec.rt)
	}
}

// notePred appends task p to preds unless this admission (stamp) already
// listed it.
func (r *Runtime) notePred(preds []int32, p, stamp int32) []int32 {
	if pred := r.recs.At(uint32(p)); pred.seen != stamp {
		pred.seen = stamp
		preds = append(preds, p)
	}
	return preds
}

// makeReady builds the dispatch record; the software runtime passes home
// addresses through (its renaming is internal to the host runtime).
func (r *Runtime) makeReady(t *taskmodel.Task) *core.ReadyTask {
	var rt *core.ReadyTask
	if n := len(r.readyTasks); n > 0 {
		rt = r.readyTasks[n-1]
		r.readyTasks = r.readyTasks[:n-1]
	} else {
		rt = core.NewPooledReadyTask(r)
	}
	rt.ID = core.TaskID{TRS: 0, Slot: uint32(t.Seq)}
	rt.Task = t
	if cap(rt.Operands) < len(t.Operands) {
		rt.Operands = make([]core.ResolvedOperand, 0, len(t.Operands))
	}
	for _, op := range t.Operands {
		rt.Operands = append(rt.Operands, core.ResolvedOperand{
			Base: op.Base,
			Buf:  uint64(op.Base),
			Size: op.Size,
			Dir:  op.Dir,
		})
	}
	return rt
}

// PutReadyTask takes back a dispatch record the backend released; the
// operand slice keeps its capacity for the next task. It implements
// core.ReadyTaskPool.
func (r *Runtime) PutReadyTask(rt *core.ReadyTask) {
	rt.Task = nil
	rt.Operands = rt.Operands[:0]
	rt.Depth = 0
	r.readyTasks = append(r.readyTasks, rt)
}

// ready hands a task whose predecessors all finished to the backend.
func (r *Runtime) ready(rt *core.ReadyTask) {
	now := r.eng.Now()
	rt.DecodedAt = now
	rt.ReadyAt = now
	r.dispatcher.TaskReady(rt)
}

// wakeEvent makes one dependent ready on the runtime thread; instances
// recycle through the runtime's pool.
type wakeEvent struct {
	r  *Runtime
	rt *core.ReadyTask
}

func (w *wakeEvent) Fire() {
	r, rt := w.r, w.rt
	w.rt = nil
	r.wakes.Put(w)
	r.ready(rt)
}

// TaskFinished implements the backend's FinishHandler: wake dependents.
// The slot of a software task ID is its sequence number.
func (r *Runtime) TaskFinished(from noc.NodeID, id core.TaskID) {
	rec := r.recs.At(id.Slot)
	if rec.done {
		panic("softrt: double finish")
	}
	rec.done = true
	rec.rt = nil // the backend releases it once this returns
	r.retired++
	r.windowCur--
	// Wakeups run on the runtime thread: charge them serially.
	delay := sim.Cycle(0)
	for _, sIdx := range rec.succs {
		s := r.recs.At(uint32(sIdx))
		s.pending--
		if s.pending == 0 {
			delay += wakeupCycles
			w := r.wakes.Get()
			w.r, w.rt = r, s.rt
			r.eng.ScheduleEvent(delay, w)
		}
	}
}

// Stats of the software runtime.
type Stats struct {
	Decoded    uint64
	Retired    uint64
	DecodeRate float64 // cycles per task
	WindowMax  int64
}

// Snapshot returns decode statistics.
func (r *Runtime) Snapshot() Stats {
	s := Stats{Decoded: r.decoded, Retired: r.retired, WindowMax: r.windowMax}
	if r.decoded > 1 {
		s.DecodeRate = float64(r.lastDecode-r.firstDecode) / float64(r.decoded-1)
	}
	return s
}
