// Package backend is the execution half of the task superscalar machine: a
// Carbon-like hardware queuing system (a global task unit plus per-core
// local task units that prefetch work, without stealing — §IV.B.5) driving
// in-order worker cores. Cores stage task operands into their L1s with
// DMA-style bursts through the memory system, execute for the task's trace
// runtime, write outputs back, and report completion to the frontend.
package backend

import (
	"fmt"

	"tasksuperscalar/internal/core"
	"tasksuperscalar/internal/mem"
	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/stats"
	"tasksuperscalar/internal/taskmodel"
)

// FinishHandler receives task-completion notifications (the pipeline
// frontend, the software runtime, or a test harness).
type FinishHandler interface {
	TaskFinished(from noc.NodeID, id core.TaskID)
}

// dispatchCycles is the global task unit's processing per dispatch (model
// calibration: one controller step, as in the pipeline's modules). The
// dispatch header, credits and steals travel as core.CtrlBytes packets.
const dispatchCycles sim.Cycle = 16

// Config sizes the backend.
type Config struct {
	Cores           int
	LocalQueueDepth int // tasks prefetched per core (Carbon LTU)

	// Stealing lets an idle core take a staged-but-unstarted task from
	// another core's local queue (Carbon supports this; the paper's
	// system does not — §IV.B.5 — so it defaults off and is an ablation).
	Stealing bool

	// Policy selects the dispatch policy by name ("" = PolicyFIFO); see
	// policy.go. The policy is part of the machine and participates in
	// config canonicalization.
	Policy string

	// WorkerClasses partitions the cores into named execution classes
	// (first class → first Count cores, remainder = baseline). Class
	// speeds scale execution under every policy; the hetero policy
	// additionally uses them for placement. Part of the machine, so
	// canonicalized.
	WorkerClasses []WorkerClass

	// TaskDepth maps task sequence numbers to dependent-chain heights for
	// the critical-path policy (tasks past the end have depth 0). It is a
	// pure function of the workload — derived per-run input, excluded
	// from canonicalization.
	TaskDepth []uint32

	// OnDispatch, when set, observes every dispatch decision in commit
	// order (an observer: excluded from canonicalization).
	OnDispatch func(DispatchRecord)

	// SpecValidate replays a recorded dispatch trace against this run:
	// each decision must match the trace entry exactly and pass the
	// policy's admission legality re-check, else the backend panics. This
	// is the spec policy's non-speculative validation oracle (observer;
	// excluded from canonicalization).
	SpecValidate []DispatchRecord

	// RecordSchedule retains per-task start/finish times (O(tasks)
	// memory) for Schedule. Streaming runs disable it so backend memory
	// stays proportional to the in-flight window.
	RecordSchedule bool

	// OnComplete, when set, is invoked as each task finishes (with its
	// sequence number and completion cycle) — a bounded-memory
	// alternative to Schedule for observing the retirement order.
	OnComplete func(seq uint64, at sim.Cycle)
}

// DefaultConfig returns the backend used throughout the evaluation.
func DefaultConfig(cores int) Config {
	return Config{Cores: cores, LocalQueueDepth: 2, RecordSchedule: true}
}

// stagedTask is a local-queue entry whose operands may still be in flight.
// It doubles as the staging-complete event and recycles through the
// backend's pool.
type stagedTask struct {
	rt     *core.ReadyTask
	staged bool
	b      *Backend
	w      *worker
}

// Fire marks the operands arrived and pokes the owning core.
func (st *stagedTask) Fire() {
	st.staged = true
	st.b.maybeStart(st.w)
}

// worker is one processor core acting as a functional unit. Operand staging
// is double-buffered: the local task unit prefetches the operands of queued
// tasks while the current task executes (the Cell-heritage DMA overlap the
// paper's fine-grain tasks depend on).
type worker struct {
	idx     int
	node    noc.NodeID
	queue   sim.FIFO[*stagedTask]
	running bool
}

// Backend implements core.Dispatcher.
type Backend struct {
	eng *sim.Engine
	net *noc.Network
	cfg Config
	mem *mem.System // may be nil (frontend-only studies)

	finish FinishHandler

	node    noc.NodeID // global task unit
	gtu     *sim.Server[gtuMsg]
	policy  Policy // owns the ready set; picks (task, worker) pairs
	credits []int  // free local-queue slots per worker
	freeRR  int
	workers []*worker

	// Worker-class precomputation (nil unless WorkerClasses set).
	classOf      []int8    // worker → class index, -1 = baseline
	classMembers [][]int32 // class index → member workers, ascending

	// Speculation state (nil unless the spec policy is active).
	wantHints bool
	specHint  []bool // worker finished executing; credit in flight
	specDebt  []int8 // outstanding speculative dispatches (0 or 1)

	// Pools for the per-task event objects (delivery, staging, execution
	// lifecycle), so steady-state execution does not allocate.
	staged     sim.Pool[stagedTask]
	taskEvents sim.Pool[taskEvent]
	deliveries sim.Pool[deliverTaskEvent]

	// Observability: per-task start/finish cycles, indexed directly by
	// task sequence number (grown on demand; nil unless RecordSchedule).
	recSched bool
	startAt  []sim.Cycle
	finishAt []sim.Cycle

	busy      stats.Counter
	executed  uint64
	readyPeak int
	steals    uint64

	// Per-run dispatch accounting (see DispatchStats / ResetRunStats).
	dispatches       uint64
	affineDispatches uint64
	specDispatched   uint64
	specValidated    uint64
	workCycles       uint64
	depthMax         uint32
	valIdx           int // cursor into cfg.SpecValidate
}

// gtuKind tags a message to the global task unit.
type gtuKind uint8

const (
	gtuReady  gtuKind = iota // a ready task joins the ready set
	gtuCredit                // a worker's local-queue slot is free again
	gtuHint                  // a worker finished executing (spec policy)
	gtuMove                  // steal: a local-queue slot moves between workers
)

// gtuMsg is a message to the global task unit.
type gtuMsg struct {
	rt   *core.ReadyTask // gtuReady
	w    int             // the worker of a credit or hint; the one a moved slot leaves
	to   int             // gtuMove: the worker the slot moves to
	kind gtuKind
}

// execCycles scales a task's runtime, when worker classes are configured,
// by the worker's class (per-kernel) speed — a machine property that
// applies under every dispatch policy.
func (b *Backend) execCycles(w *worker, rt *core.ReadyTask) sim.Cycle {
	t := rt.Task.Runtime
	if b.classOf != nil {
		if c := b.classOf[w.idx]; c >= 0 {
			if sp := b.cfg.WorkerClasses[c].effSpeed(rt.Task.Kernel); sp != 1 {
				t = uint64(float64(t) / sp)
			}
		}
	}
	return sim.Cycle(t)
}

// trySteal moves a staged-but-unstarted task from the most loaded peer's
// local queue to the idle worker w (two control messages of latency).
func (b *Backend) trySteal(w *worker) {
	var victim *worker
	for _, v := range b.workers {
		if v == w || v.queue.Len() == 0 {
			continue
		}
		// Only steal fully staged tasks that are not about to start.
		last := *v.queue.At(v.queue.Len() - 1)
		if !last.staged || (v.queue.Len() == 1 && !v.running) {
			continue
		}
		if victim == nil || v.queue.Len() > victim.queue.Len() {
			victim = v
		}
	}
	if victim == nil {
		return
	}
	st := victim.queue.PopBack()
	st.w = w
	b.steals++
	b.net.Send(w.node, victim.node, core.CtrlBytes, sim.FuncEvent(func() {
		b.net.Send(victim.node, w.node, core.CtrlBytes, sim.FuncEvent(func() {
			// Re-stage on the thief (its L1 must hold the operands).
			b.stageOperands(w, st.rt, sim.FuncEvent(func() {
				w.queue.Push(st)
				st.staged = true
				b.maybeStart(w)
			}))
			// The local-queue slot moves with the task.
			b.gtu.Submit(gtuMsg{kind: gtuMove, w: victim.idx, to: w.idx})
		}))
	}))
}

// New builds the backend and attaches the global task unit and the worker
// cores to the network (call before net.Build()). coreNodes supplies the
// worker attachment points; the caller creates them so the memory system
// and backend agree on core indices.
func New(eng *sim.Engine, net *noc.Network, coreNodes []noc.NodeID, cfg Config, m *mem.System) *Backend {
	b := &Backend{
		eng:  eng,
		net:  net,
		cfg:  cfg,
		mem:  m,
		node: net.AddGlobalNode("gtu"),
	}
	b.recSched = cfg.RecordSchedule
	b.gtu = sim.NewServer(eng, b.handleGTU)
	// Workers and credits in contiguous arrays.
	ws := make([]worker, cfg.Cores)
	b.workers = make([]*worker, cfg.Cores)
	b.credits = make([]int, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		ws[i] = worker{idx: i, node: coreNodes[i]}
		b.workers[i] = &ws[i]
		b.credits[i] = cfg.LocalQueueDepth
	}
	if len(cfg.WorkerClasses) > 0 {
		b.classOf = make([]int8, cfg.Cores)
		b.classMembers = make([][]int32, len(cfg.WorkerClasses))
		for i := range b.classOf {
			b.classOf[i] = -1
		}
		next := 0
		for ci := range cfg.WorkerClasses {
			for j := 0; j < cfg.WorkerClasses[ci].Count && next < cfg.Cores; j++ {
				b.classOf[next] = int8(ci)
				b.classMembers[ci] = append(b.classMembers[ci], int32(next))
				next++
			}
		}
	}
	if cfg.Policy == PolicySpec {
		b.wantHints = true
		b.specHint = make([]bool, cfg.Cores)
		b.specDebt = make([]int8, cfg.Cores)
	}
	b.policy = b.newPolicy(cfg.Policy)
	return b
}

// record writes one observation into a seq-indexed table, growing it on
// demand (sequence numbers arrive roughly in order, so growth is amortized
// doubling, not per task).
func record(tab []sim.Cycle, seq uint64, at sim.Cycle) []sim.Cycle {
	for uint64(len(tab)) <= seq {
		tab = append(tab, 0)
	}
	tab[seq] = at
	return tab
}

// SetFinishHandler wires completion notifications (frontend or soft runtime).
func (b *Backend) SetFinishHandler(h FinishHandler) { b.finish = h }

// Node implements core.Dispatcher.
func (b *Backend) Node() noc.NodeID { return b.node }

// TaskReady implements core.Dispatcher: the ready queue accepts the task.
// It submits rather than delivers, because the software runtime calls it
// from inside its own handlers.
func (b *Backend) TaskReady(rt *core.ReadyTask) { b.gtu.Submit(gtuMsg{kind: gtuReady, rt: rt}) }

func (b *Backend) handleGTU(m gtuMsg) sim.Cycle {
	switch m.kind {
	case gtuReady:
		b.policy.Enqueue(m.rt)
		if r := b.policy.Ready(); r > b.readyPeak {
			b.readyPeak = r
		}
	case gtuCredit:
		if b.specDebt != nil && b.specDebt[m.w] > 0 {
			// The slot this credit frees was consumed early by a
			// speculative dispatch: repay the debt instead. This is
			// the rollback-free validation — the speculation is
			// confirmed correct by the credit's arrival.
			b.specDebt[m.w]--
			b.specValidated++
		} else {
			b.credits[m.w]++
		}
	case gtuHint:
		b.specHint[m.w] = true
	case gtuMove:
		b.credits[m.w]++
		b.credits[m.to]--
	}
	return b.dispatch()
}

// deliverTaskEvent carries one dispatched task from the global task unit to
// a worker's local queue; pooled on the backend.
type deliverTaskEvent struct {
	b  *Backend
	w  *worker
	rt *core.ReadyTask
}

func (ev *deliverTaskEvent) Fire() {
	b, w, rt := ev.b, ev.w, ev.rt
	ev.rt = nil
	b.deliveries.Put(ev)
	b.deliver(w, rt)
}

// dispatch drains the policy's ready set onto workers: the policy picks
// (task, worker) pairs until none is admissible; the loop charges credits,
// accounts the decision, and sends the delivery.
func (b *Backend) dispatch() sim.Cycle {
	var cost sim.Cycle
	for b.policy.Ready() > 0 {
		rt, wi, spec, ok := b.policy.Pick()
		if !ok {
			break
		}
		if !spec {
			b.credits[wi]--
		}
		b.dispatches++
		if b.cfg.OnDispatch != nil || b.cfg.SpecValidate != nil {
			b.checkDispatch(rt, wi, spec)
		}
		w := b.workers[wi]
		size := core.CtrlBytes + 16*uint32(len(rt.Operands))
		ev := b.deliveries.Get()
		ev.b, ev.w, ev.rt = b, w, rt
		b.net.Send(b.node, w.node, size, ev)
		cost += dispatchCycles
	}
	return cost
}

// checkDispatch reports one dispatch decision to the observers and, under
// SpecValidate, replays it against the recorded trace: the decision must
// match the next trace entry exactly and be legal under the policy's own
// admission rules. A divergence is a determinism or speculation bug, so it
// panics rather than degrading silently.
func (b *Backend) checkDispatch(rt *core.ReadyTask, w int, spec bool) {
	rec := DispatchRecord{Seq: rt.Task.Seq, Worker: w, Cycle: uint64(b.eng.Now()), Speculative: spec}
	if b.cfg.OnDispatch != nil {
		b.cfg.OnDispatch(rec)
	}
	trace := b.cfg.SpecValidate
	if trace == nil {
		return
	}
	if b.valIdx >= len(trace) {
		panic(fmt.Sprintf("backend: dispatch %d (%+v) beyond recorded trace of %d", b.valIdx, rec, len(trace)))
	}
	want := trace[b.valIdx]
	b.valIdx++
	if rec != want {
		panic(fmt.Sprintf("backend: dispatch %d diverged: got %+v, trace has %+v", b.valIdx-1, rec, want))
	}
	if spec {
		if b.specDebt == nil || b.specDebt[w] != 1 {
			panic(fmt.Sprintf("backend: speculative dispatch %d to worker %d without debt", b.valIdx-1, w))
		}
	} else if b.credits[w] < 0 {
		panic(fmt.Sprintf("backend: dispatch %d overdrew worker %d credits", b.valIdx-1, w))
	}
}

// deliver places a task in a worker's local queue and begins staging its
// operands immediately, overlapping any current execution.
func (b *Backend) deliver(w *worker, rt *core.ReadyTask) {
	st := b.staged.Get()
	st.b, st.rt, st.w, st.staged = b, rt, w, false
	w.queue.Push(st)
	b.stageOperands(w, rt, st)
}

// taskEvent drives one task's execution lifecycle (execution end, then
// writeback completion) through a single pooled object.
type taskEvent struct {
	b     *Backend
	w     *worker
	rt    *core.ReadyTask
	phase uint8
}

const (
	phaseExecDone uint8 = iota
	phaseWriteDone
)

func (ev *taskEvent) Fire() {
	b, w, rt := ev.b, ev.w, ev.rt
	switch ev.phase {
	case phaseExecDone:
		// The core frees at execution end; output writeback proceeds in
		// the background and gates only the completion notification.
		b.busy.Inc(b.eng.Now(), -1)
		w.running = false
		if b.wantHints {
			// Tell the GTU this worker's credit is now provably in
			// flight (writeback → completion → credit), enabling one
			// speculative early dispatch against it.
			b.net.Send(w.node, b.node, core.CtrlBytes, b.gtu.Deliver(gtuMsg{kind: gtuHint, w: w.idx}))
		}
		b.maybeStart(w)
		ev.phase = phaseWriteDone
		b.writeOutputs(w, rt, ev)
	case phaseWriteDone:
		ev.rt = nil
		b.taskEvents.Put(ev)
		b.completeTask(w, rt)
	}
}

// maybeStart launches the head task once the core is idle and the task's
// operands have arrived.
func (b *Backend) maybeStart(w *worker) {
	if w.running {
		return
	}
	if w.queue.Len() == 0 || !(*w.queue.Front()).staged {
		if b.cfg.Stealing && w.queue.Len() == 0 {
			b.trySteal(w)
		}
		return
	}
	st := w.queue.Pop()
	w.running = true
	rt := st.rt
	st.rt, st.w = nil, nil
	b.staged.Put(st)
	b.busy.Inc(b.eng.Now(), +1)
	if b.recSched {
		b.startAt = record(b.startAt, rt.Task.Seq, b.eng.Now())
	}
	ev := b.taskEvents.Get()
	ev.b, ev.w, ev.rt, ev.phase = b, w, rt, phaseExecDone
	c := b.execCycles(w, rt)
	b.workCycles += uint64(c)
	b.eng.ScheduleEvent(c, ev)
}

// stageOperands brings every input operand into the worker's L1 and
// acquires write ownership of outputs, all in parallel; done fires once
// everything has arrived.
func (b *Backend) stageOperands(w *worker, rt *core.ReadyTask, done sim.Event) {
	if b.mem == nil {
		b.eng.ScheduleEvent(0, done)
		return
	}
	pending := 0
	fire := func() {
		pending--
		if pending == 0 {
			done.Fire()
		}
	}
	for _, op := range rt.Operands {
		if op.Dir == taskmodel.Scalar || op.Size == 0 {
			continue
		}
		pending++
		switch op.Dir {
		case taskmodel.In:
			b.mem.Fetch(w.idx, op.Buf, op.Size, fire)
		case taskmodel.InOut:
			b.mem.FetchExclusive(w.idx, op.Buf, op.Size, fire)
		case taskmodel.Out:
			b.mem.AcquireWrite(w.idx, op.Buf, op.Size, fire)
		}
	}
	if pending == 0 {
		b.eng.ScheduleEvent(0, done)
	}
}

// writeOutputs flushes produced data to the shared L2 so consumers see it.
func (b *Backend) writeOutputs(w *worker, rt *core.ReadyTask, done sim.Event) {
	if b.mem == nil {
		b.eng.ScheduleEvent(0, done)
		return
	}
	pending := 0
	fire := func() {
		pending--
		if pending == 0 {
			done.Fire()
		}
	}
	for _, op := range rt.Operands {
		if !op.Dir.Writes() || op.Size == 0 {
			continue
		}
		pending++
		b.mem.Writeback(w.idx, op.Buf, op.Size, fire)
	}
	if pending == 0 {
		b.eng.ScheduleEvent(0, done)
	}
}

func (b *Backend) completeTask(w *worker, rt *core.ReadyTask) {
	now := b.eng.Now()
	if b.recSched {
		b.finishAt = record(b.finishAt, rt.Task.Seq, now)
	}
	if b.cfg.OnComplete != nil {
		b.cfg.OnComplete(rt.Task.Seq, now)
	}
	b.executed++
	if b.finish != nil {
		b.finish.TaskFinished(w.node, rt.ID)
	}
	// Return the local-queue slot to the global task unit.
	b.net.Send(w.node, b.node, core.CtrlBytes, b.gtu.Deliver(gtuMsg{kind: gtuCredit, w: w.idx}))
	// The task is fully retired: hand the dispatch record back to its
	// issuing frontend's pool (no-op for unpooled producers).
	rt.Release()
}

// Executed returns the number of completed tasks.
func (b *Backend) Executed() uint64 { return b.executed }

// Schedule returns observed start and finish times indexed by task sequence
// number (for validation against the dependency-graph oracle), n of each.
// It hands over the recorded tables instead of copying them, and drops its
// own references, so later recording cannot overwrite what it returned. It
// returns nils when the run was configured without schedule recording.
func (b *Backend) Schedule(n int) (start, finish []uint64) {
	if !b.recSched {
		return nil, nil
	}
	start, finish = resized(b.startAt, n), resized(b.finishAt, n)
	b.startAt, b.finishAt = nil, nil
	return start, finish
}

// resized returns tab cut or zero-extended to n entries.
func resized(tab []sim.Cycle, n int) []sim.Cycle {
	if len(tab) >= n {
		return tab[:n]
	}
	return append(tab, make([]sim.Cycle, n-len(tab))...)
}

// Utilization returns average busy cores over [0, end].
func (b *Backend) Utilization(end sim.Cycle) float64 { return b.busy.TimeAvg(end) }

// ReadyPeak returns the high-water mark of the global ready set.
func (b *Backend) ReadyPeak() int { return b.readyPeak }

// Steals returns the number of tasks moved between local queues.
func (b *Backend) Steals() uint64 { return b.steals }

// Policy returns the active dispatch policy (for tests and observability).
func (b *Backend) Policy() Policy { return b.policy }

// Dispatch returns the run's dispatch accounting.
func (b *Backend) Dispatch() DispatchStats {
	return DispatchStats{
		Policy:           b.policy.Name(),
		Dispatches:       b.dispatches,
		AffineDispatches: b.affineDispatches,
		SpecDispatches:   b.specDispatched,
		SpecValidated:    b.specValidated,
		ReadyPeak:        b.readyPeak,
		MaxDepth:         b.depthMax,
		WorkCycles:       b.workCycles,
		Steals:           b.steals,
	}
}

// ResetRunStats clears the per-run observability counters so a backend
// reused across engine runs reports the new run alone (previously ReadyPeak
// leaked the old run's high-water mark). The busy counter — and therefore
// Utilization — stays cumulative: it is time-weighted over the engine
// clock, which also keeps advancing across runs.
func (b *Backend) ResetRunStats() {
	b.readyPeak = 0
	b.executed = 0
	b.steals = 0
	b.dispatches = 0
	b.affineDispatches = 0
	b.specDispatched = 0
	b.specValidated = 0
	b.workCycles = 0
	b.depthMax = 0
	b.valIdx = 0
	b.startAt = b.startAt[:0]
	b.finishAt = b.finishAt[:0]
}
