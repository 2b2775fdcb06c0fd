package tss

import (
	"context"
	"fmt"

	"tasksuperscalar/internal/backend"
	"tasksuperscalar/internal/core"
	"tasksuperscalar/internal/mem"
	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/softrt"
	"tasksuperscalar/internal/taskmodel"
)

// Result reports one simulation run.
type Result struct {
	// Kind is the runtime that executed the run.
	Kind RuntimeKind
	// Cores is the worker-core count of the simulated machine.
	Cores int
	// Tasks is the number of tasks executed.
	Tasks uint64

	// Cycles is the makespan in core cycles.
	Cycles uint64
	// TotalWorkCycles is the sum of task runtimes (the sequential lower
	// bound without overheads).
	TotalWorkCycles uint64

	// DecodeRateCycles is the average time between successive additions
	// to the task graph (hardware and software runtimes).
	DecodeRateCycles float64

	// Utilization is the time-averaged fraction of busy cores.
	Utilization float64

	// WindowMax is the peak number of in-flight decoded tasks.
	WindowMax int64

	// Dispatch carries the backend's per-run dispatch-policy accounting
	// (policy name, dispatch counts, speculation validation, ready-set
	// peak, scheduled work cycles).
	Dispatch DispatchStats

	// Frontend carries hardware-pipeline statistics (hardware runs only).
	Frontend core.FrontendStats
	// Software carries software-runtime statistics (software runs only).
	Software softrt.Stats
	// Mem carries memory-system statistics when Memory is enabled.
	Mem mem.Stats

	// Start and Finish are per-task observed times indexed by sequence
	// number (for validation). Streamed runs leave them nil — use
	// Config.OnComplete to observe retirement in bounded memory.
	Start, Finish []uint64
}

// DecodeRateNs converts the decode rate to nanoseconds.
func (r *Result) DecodeRateNs() float64 { return CyclesToNs(r.DecodeRateCycles) }

// SpeedupOver returns this run's speedup relative to a baseline run.
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// Run executes the program on the configured machine.
func Run(p *Program, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), p, cfg)
}

// RunCtx is Run with cooperative cancellation: the simulation loop polls ctx
// every sim.DefaultCancelCheckCycles simulated cycles (a pure observation —
// an uncancelled RunCtx is cycle-exact identical to Run) and, once
// cancelled, abandons the machine and returns an error wrapping ctx.Err().
func RunCtx(ctx context.Context, p *Program, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return RunTasksCtx(ctx, p.tasks, cfg)
}

// RunTasks executes a raw task list (used by the benchmark harness, whose
// workload generators produce taskmodel streams directly).
func RunTasks(tasks []*taskmodel.Task, cfg Config) (*Result, error) {
	return RunTasksCtx(context.Background(), tasks, cfg)
}

// RunTasksCtx is RunTasks with cooperative cancellation (see RunCtx).
func RunTasksCtx(ctx context.Context, tasks []*taskmodel.Task, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The critical-path policy wants the dependent-chain height table;
	// with the whole task list in hand it is derivable here. Streaming
	// entry points have no list, so their tasks fall back to depth 0
	// (arrival order) unless the caller supplies Backend.TaskDepth.
	if cfg.Backend.TaskDepth == nil && cfg.Backend.Policy == backend.PolicyCriticalPath {
		cfg.Backend.TaskDepth = TaskDepths(tasks, cfg.Frontend.Renaming)
	}
	st := newCountingStream(taskmodel.NewSliceStream(tasks), nil)
	return dispatchRun(ctx, st, cfg)
}

// dispatchRun executes one task stream on the selected runtime.
func dispatchRun(ctx context.Context, st *countingStream, cfg Config) (*Result, error) {
	switch cfg.Runtime {
	case Sequential:
		return runSequential(ctx, st, cfg)
	case HardwarePipeline:
		return runHardwareMulti(ctx, []*countingStream{st}, cfg)
	case SoftwareRuntime:
		return runSoftware(ctx, st, cfg)
	default:
		return nil, fmt.Errorf("tss: unknown runtime kind %d", cfg.Runtime)
	}
}

// runEngine drives the machine's event loop to completion, polling ctx
// every sim.DefaultCancelCheckCycles cycles. A cancelled run is abandoned
// mid-flight: the error wraps ctx.Err() (so errors.Is(err, context.Canceled)
// holds) and the partial machine state is discarded by the caller.
func runEngine(ctx context.Context, m *machine) error {
	if _, err := m.eng.RunContext(ctx, sim.DefaultCancelCheckCycles); err != nil {
		return fmt.Errorf("tss: run cancelled at cycle %d: %w", m.eng.Now(), err)
	}
	return nil
}

// machine bundles the shared substrate of a parallel run.
type machine struct {
	eng       *sim.Engine
	net       *noc.Network
	coreNodes []noc.NodeID
	genNode   noc.NodeID
	memory    *mem.System
	back      *backend.Backend
}

// buildMachine assembles engine, network, cores, memory and backend.
func buildMachine(cfg Config) *machine {
	eng := sim.NewEngine()
	net := noc.NewNetwork(eng, noc.DefaultConfig())
	m := &machine{eng: eng, net: net}
	// One shared diagnostic name: cores are identified by NodeID, and a
	// formatted name per core is a measurable slice of construction cost
	// at 256 cores per sweep point.
	m.coreNodes = make([]noc.NodeID, 0, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		m.coreNodes = append(m.coreNodes, net.AddCore("core"))
	}
	// The task-generating thread runs on its own core.
	m.genNode = net.AddCore("generator")
	if cfg.Memory {
		m.memory = mem.NewSystem(eng, net, m.coreNodes)
	}
	bcfg := cfg.Backend
	bcfg.Cores = cfg.Cores
	if cfg.OnComplete != nil {
		hook := cfg.OnComplete
		bcfg.OnComplete = func(seq uint64, at sim.Cycle) { hook(seq, uint64(at)) }
	}
	m.back = backend.New(eng, net, m.coreNodes, bcfg, m.memory)
	return m
}

// finish fills the common result fields. n and work are the stream's task
// count and total runtime; the per-task schedule is filled in when the
// backend recorded one (Backend.RecordSchedule).
func (m *machine) finish(res *Result, n, work uint64) {
	res.Cycles = uint64(m.eng.Now())
	res.Tasks = m.back.Executed()
	res.TotalWorkCycles = work
	res.Dispatch = m.back.Dispatch()
	res.Utilization = m.back.Utilization(m.eng.Now()) / float64(res.Cores)
	res.Start, res.Finish = m.back.Schedule(int(n))
	if m.memory != nil {
		res.Mem = m.memory.Snapshot()
	}
}

// runHardwareMulti drives the hardware pipeline from one or more
// task-generating threads, each pulling lazily from its own stream with the
// gateway's buffer as back-pressure.
func runHardwareMulti(ctx context.Context, streams []*countingStream, cfg Config) (*Result, error) {
	m := buildMachine(cfg)
	var copyEng core.CopyEngine
	if m.memory != nil {
		copyEng = m.memory
	} else {
		copyEng = core.NewNullCopyEngine(m.eng)
	}
	fe := core.New(m.eng, m.net, cfg.Frontend, copyEng)
	fe.SetDispatcher(m.back)
	m.back.SetFinishHandler(fe)

	// One generating thread per stream; a single stream reuses the
	// machine's generator core, additional ones get their own.
	genNodes := []noc.NodeID{m.genNode}
	if len(streams) > 1 {
		genNodes = genNodes[:0]
		for range streams {
			genNodes = append(genNodes, m.net.AddCore("generator"))
		}
	}
	m.net.Build()
	gens := make([]*core.Generator, len(streams))
	for i, st := range streams {
		gens[i] = core.NewGenerator(fe, genNodes[i], st)
	}
	for _, g := range gens {
		g.Start()
	}
	if err := runEngine(ctx, m); err != nil {
		return nil, err
	}

	var n, work uint64
	var streamErr error
	for _, st := range streams {
		n += st.n
		work += st.work
		if streamErr == nil && st.err != nil {
			streamErr = st.err
		}
	}
	res := &Result{Kind: HardwarePipeline, Cores: cfg.Cores}
	m.finish(res, n, work)
	res.Frontend = fe.Stats(m.eng.Now())
	res.DecodeRateCycles = res.Frontend.DecodeRate
	res.WindowMax = res.Frontend.WindowMax
	if streamErr != nil {
		return res, streamErr
	}
	if m.back.Executed() != n {
		return res, fmt.Errorf("tss: hardware run executed %d of %d tasks (pipeline deadlock?)",
			m.back.Executed(), n)
	}
	return res, nil
}

func runSoftware(ctx context.Context, st *countingStream, cfg Config) (*Result, error) {
	m := buildMachine(cfg)
	rt := softrt.New(m.eng, st, m.back, m.genNode)
	m.back.SetFinishHandler(rt)
	m.net.Build()

	rt.Start()
	if err := runEngine(ctx, m); err != nil {
		return nil, err
	}

	res := &Result{Kind: SoftwareRuntime, Cores: cfg.Cores}
	m.finish(res, st.n, st.work)
	res.Software = rt.Snapshot()
	res.DecodeRateCycles = res.Software.DecodeRate
	res.WindowMax = res.Software.WindowMax
	if st.err != nil {
		return res, st.err
	}
	if m.back.Executed() != st.n {
		return res, fmt.Errorf("tss: software run executed %d of %d tasks",
			m.back.Executed(), st.n)
	}
	return res, nil
}

// seqFinisher drives the next task when the previous one completes.
type seqFinisher struct {
	feed func()
}

func (s *seqFinisher) TaskFinished(from noc.NodeID, id core.TaskID) { s.feed() }

func runSequential(ctx context.Context, st *countingStream, cfg Config) (*Result, error) {
	cfg = cfg.WithCores(1)
	m := buildMachine(cfg)
	m.net.Build()

	var feed func()
	feed = func() {
		t := st.Next()
		if t == nil {
			return
		}
		ops := make([]core.ResolvedOperand, len(t.Operands))
		for i, op := range t.Operands {
			ops[i] = core.ResolvedOperand{
				Base: op.Base, Buf: uint64(op.Base), Size: op.Size, Dir: op.Dir,
			}
		}
		m.back.TaskReady(&core.ReadyTask{
			ID:       core.TaskID{Slot: uint32(t.Seq)},
			Task:     t,
			Operands: ops,
		})
	}
	m.back.SetFinishHandler(&seqFinisher{feed: feed})
	feed()
	if err := runEngine(ctx, m); err != nil {
		return nil, err
	}

	res := &Result{Kind: Sequential, Cores: 1}
	m.finish(res, st.n, st.work)
	if st.err != nil {
		return res, st.err
	}
	if m.back.Executed() != st.n {
		return res, fmt.Errorf("tss: sequential run executed %d of %d tasks",
			m.back.Executed(), st.n)
	}
	return res, nil
}

// SequentialCycles is a fast analytic lower bound used where a full
// sequential simulation is unnecessary: the sum of task runtimes.
func SequentialCycles(tasks []*taskmodel.Task) uint64 {
	var sum uint64
	for _, t := range tasks {
		sum += t.Runtime
	}
	return sum
}
