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
	rt      *core.ReadyTask
	pending int
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
type Runtime struct {
	eng *sim.Engine

	stream     taskmodel.Stream
	dispatcher Dispatcher
	node       noc.NodeID

	recs    []*record
	objs    map[taskmodel.Addr]*objState
	decoded uint64
	retired uint64

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
	return &Runtime{
		eng:        eng,
		stream:     stream,
		dispatcher: d,
		node:       node,
		objs:       make(map[taskmodel.Addr]*objState),
	}
}

// Start begins decoding.
func (r *Runtime) Start() { r.decodeNext() }

func (r *Runtime) decodeNext() {
	t := r.stream.Next()
	if t == nil {
		return
	}
	cost := core.GenBaseCycles + decodeBase +
		(core.GenPerOpCycles+decodePerOp)*sim.Cycle(t.NumOperands())
	r.eng.Schedule(cost, func() {
		r.admit(t)
		r.decodeNext()
	})
}

// admit resolves the task's dependencies against the software object state
// (renamed semantics: pure outputs do not serialize against earlier users).
func (r *Runtime) admit(t *taskmodel.Task) {
	idx := int32(len(r.recs))
	rec := &record{rt: r.makeReady(t)}
	preds := map[int32]struct{}{}
	for _, op := range t.Operands {
		if op.Dir == taskmodel.Scalar {
			continue
		}
		s := r.objs[op.Base]
		if s == nil {
			s = &objState{lastWriter: -1}
			r.objs[op.Base] = s
		}
		if op.Dir.Reads() && s.lastWriter >= 0 {
			preds[s.lastWriter] = struct{}{}
		}
		if op.Dir == taskmodel.InOut {
			for _, rd := range s.readersSinceLast {
				if rd != idx {
					preds[rd] = struct{}{}
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
	for p := range preds {
		if !r.recs[p].done {
			rec.pending++
			r.recs[p].succs = append(r.recs[p].succs, idx)
		}
	}
	r.recs = append(r.recs, rec)
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
		rec.rt.DecodedAt = now
		rec.rt.ReadyAt = now
		r.dispatcher.TaskReady(rec.rt)
	}
}

// makeReady builds the dispatch record; the software runtime passes home
// addresses through (its renaming is internal to the host runtime).
func (r *Runtime) makeReady(t *taskmodel.Task) *core.ReadyTask {
	ops := make([]core.ResolvedOperand, len(t.Operands))
	for i, op := range t.Operands {
		ops[i] = core.ResolvedOperand{
			Base: op.Base,
			Buf:  uint64(op.Base),
			Size: op.Size,
			Dir:  op.Dir,
		}
	}
	return &core.ReadyTask{
		ID:       core.TaskID{TRS: 0, Slot: uint32(t.Seq)},
		Task:     t,
		Operands: ops,
	}
}

// TaskFinished implements the backend's FinishHandler: wake dependents.
// The slot of a software task ID is its sequence number.
func (r *Runtime) TaskFinished(from noc.NodeID, id core.TaskID) {
	rec := r.recs[id.Slot]
	if rec.done {
		panic("softrt: double finish")
	}
	rec.done = true
	r.retired++
	r.windowCur--
	// Wakeups run on the runtime thread: charge them serially.
	delay := sim.Cycle(0)
	for _, sIdx := range rec.succs {
		s := r.recs[sIdx]
		s.pending--
		if s.pending == 0 {
			delay += wakeupCycles
			dep := s
			r.eng.Schedule(delay, func() {
				now := r.eng.Now()
				dep.rt.DecodedAt = now
				dep.rt.ReadyAt = now
				r.dispatcher.TaskReady(dep.rt)
			})
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
