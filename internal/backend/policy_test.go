package backend

import (
	"fmt"
	"math/rand"
	"testing"

	"tasksuperscalar/internal/core"
	"tasksuperscalar/internal/mem"
	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// rigCfg is rig with a caller-supplied config (cfg.Cores decides the core
// count).
func rigCfg(t *testing.T, cfg Config) (*sim.Engine, *Backend, *finishRecorder) {
	t.Helper()
	return rigCfgMem(t, cfg, false)
}

// rigCfgMem is rigCfg with an optional memory system.
func rigCfgMem(t *testing.T, cfg Config, withMem bool) (*sim.Engine, *Backend, *finishRecorder) {
	t.Helper()
	eng := sim.NewEngine()
	net := noc.NewNetwork(eng, noc.DefaultConfig())
	var coreNodes []noc.NodeID
	for i := 0; i < cfg.Cores; i++ {
		coreNodes = append(coreNodes, net.AddCore("core"))
	}
	var m *mem.System
	if withMem {
		m = mem.NewSystem(eng, net, coreNodes)
	}
	b := New(eng, net, coreNodes, cfg, m)
	fr := &finishRecorder{}
	b.SetFinishHandler(fr)
	net.Build()
	return eng, b, fr
}

// kernelTask is mkTask with an explicit kernel ID.
func kernelTask(seq uint64, kernel taskmodel.KernelID, runtime uint64) *core.ReadyTask {
	rt := mkTask(seq, runtime)
	rt.Task.Kernel = kernel
	return rt
}

// --- ready-queue peak accounting ---

func TestReadyPeakAccounting(t *testing.T) {
	// One core with a single local-queue slot: the first of five tasks
	// dispatches immediately, the other four pile up in the ready set, so
	// the recorded peak must be exactly 4 — not 5, not the running total.
	cfg := DefaultConfig(1)
	cfg.LocalQueueDepth = 1
	eng, b, _ := rigCfg(t, cfg)
	for i := 0; i < 5; i++ {
		b.TaskReady(mkTask(uint64(i), 10_000))
	}
	eng.Run()
	if b.Executed() != 5 {
		t.Fatalf("executed %d of 5", b.Executed())
	}
	if got := b.ReadyPeak(); got != 4 {
		t.Fatalf("ReadyPeak = %d, want 4", got)
	}
}

// --- credit exhaustion under a full local queue ---

func TestCreditExhaustionBoundsInFlight(t *testing.T) {
	// 2 cores × depth 2 = 4 credits. With many ready tasks, the number
	// dispatched but not yet completed must never exceed the credit pool:
	// the GTU stops when every local queue is full and resumes per
	// returning credit.
	cfg := DefaultConfig(2)
	var inFlight, peak int
	cfg.OnDispatch = func(DispatchRecord) {
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
	}
	cfg.OnComplete = func(seq uint64, at sim.Cycle) { inFlight-- }
	eng, b, _ := rigCfg(t, cfg)
	const n = 40
	for i := 0; i < n; i++ {
		b.TaskReady(mkTask(uint64(i), 5_000))
	}
	eng.Run()
	if b.Executed() != n {
		t.Fatalf("executed %d of %d", b.Executed(), n)
	}
	limit := cfg.Cores * cfg.LocalQueueDepth
	if peak > limit {
		t.Fatalf("in-flight peak %d exceeds the credit pool %d", peak, limit)
	}
	if peak < limit {
		t.Fatalf("in-flight peak %d never saturated the credit pool %d", peak, limit)
	}
	if ds := b.Dispatch(); ds.Dispatches != n {
		t.Fatalf("Dispatches = %d, want %d", ds.Dispatches, n)
	}
}

// --- ReadyTask.Release round-trips under pooling ---

// recordPool implements core.ReadyTaskPool and records every returned
// record.
type recordPool struct {
	got []*core.ReadyTask
}

func (p *recordPool) PutReadyTask(rt *core.ReadyTask) { p.got = append(p.got, rt) }

func TestReadyTaskReleaseRoundTrip(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.Policy = policy
			eng, b, _ := rigCfg(t, cfg)
			pool := &recordPool{}
			const n = 24
			records := make(map[*core.ReadyTask]bool, n)
			for i := 0; i < n; i++ {
				rt := core.NewPooledReadyTask(pool)
				rt.ID = core.TaskID{Slot: uint32(i)}
				rt.Task = &taskmodel.Task{Seq: uint64(i), Runtime: 2_000}
				records[rt] = true
				b.TaskReady(rt)
			}
			eng.Run()
			if b.Executed() != n {
				t.Fatalf("executed %d of %d", b.Executed(), n)
			}
			// Exactly-once: every submitted record comes back, none
			// twice, none foreign.
			if len(pool.got) != n {
				t.Fatalf("pool received %d records, want %d", len(pool.got), n)
			}
			seen := make(map[*core.ReadyTask]bool, n)
			for _, rt := range pool.got {
				if !records[rt] {
					t.Fatal("pool received a record it does not own")
				}
				if seen[rt] {
					t.Fatal("record released twice")
				}
				seen[rt] = true
			}
		})
	}
}

// --- per-policy steady-state allocation gate ---

func TestPolicyPickPathDoesNotAllocate(t *testing.T) {
	const n = 64
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.Policy = policy
			switch policy {
			case PolicyHetero:
				cfg.WorkerClasses = []WorkerClass{{Name: "fast", Count: 1, KernelSpeed: []float64{2}}}
			case PolicyCriticalPath:
				depths := make([]uint32, n)
				for i := range depths {
					depths[i] = uint32(i % 16)
				}
				cfg.TaskDepth = depths
			}
			eng, b, _ := rigCfg(t, cfg)
			tasks := make([]*core.ReadyTask, n)
			for i := range tasks {
				tasks[i] = mkTask(uint64(i), uint64(500+i*7))
			}
			run := func() {
				b.ResetRunStats()
				for _, rt := range tasks {
					b.TaskReady(rt)
				}
				eng.Run()
				if b.Executed() != n {
					t.Fatalf("executed %d of %d", b.Executed(), n)
				}
			}
			run() // warm the pools, queues and caches
			// Retry a non-zero measurement twice: unrelated background
			// allocations (GC pacing after earlier subtests) occasionally
			// pollute a single AllocsPerRun window, but a genuine per-run
			// leak allocates in every window.
			var avg float64
			for attempt := 0; attempt < 3; attempt++ {
				if avg = testing.AllocsPerRun(3, run); avg == 0 {
					break
				}
			}
			if avg != 0 {
				t.Fatalf("%s pick path allocated %.2f times per run, want 0", policy, avg)
			}
		})
	}
}

// --- the ReadyPeak reset bugfix ---

func TestResetRunStatsClearsPerRunCounters(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.LocalQueueDepth = 1
	eng, b, _ := rigCfg(t, cfg)
	for i := 0; i < 8; i++ {
		b.TaskReady(mkTask(uint64(i), 1_000))
	}
	eng.Run()
	if b.ReadyPeak() != 7 {
		t.Fatalf("first run ReadyPeak = %d, want 7", b.ReadyPeak())
	}

	// Before the fix, a reused backend reported the first run's peak
	// forever; the second run's single task can never queue 7 deep.
	b.ResetRunStats()
	if b.ReadyPeak() != 0 || b.Executed() != 0 || b.Dispatch().Dispatches != 0 {
		t.Fatal("ResetRunStats left per-run counters set")
	}
	b.TaskReady(mkTask(8, 1_000))
	eng.Run()
	if got := b.ReadyPeak(); got != 1 {
		t.Fatalf("second run ReadyPeak = %d, want 1 (leaked from first run?)", got)
	}
	if b.Executed() != 1 {
		t.Fatalf("second run Executed = %d, want 1", b.Executed())
	}
	if ds := b.Dispatch(); ds.WorkCycles != 1_000 {
		t.Fatalf("second run WorkCycles = %d, want 1000", ds.WorkCycles)
	}
}

// --- policy behaviour pins ---

func TestCriticalPathPicksDeepestFirst(t *testing.T) {
	// One core, one slot. Task 0 occupies the core; tasks 1..3 arrive
	// with depths 0, 5, 9 and must start in depth order 3, 2, 1 — the
	// reverse of arrival.
	cfg := DefaultConfig(1)
	cfg.LocalQueueDepth = 1
	cfg.Policy = PolicyCriticalPath
	cfg.TaskDepth = []uint32{0, 0, 5, 9}
	eng, b, _ := rigCfg(t, cfg)
	for i := 0; i < 4; i++ {
		b.TaskReady(mkTask(uint64(i), 10_000))
	}
	eng.Run()
	start, _ := b.Schedule(4)
	if !(start[3] < start[2] && start[2] < start[1]) {
		t.Fatalf("start order not by depth: starts = %v", start)
	}
	if ds := b.Dispatch(); ds.MaxDepth != 9 {
		t.Fatalf("MaxDepth = %d, want 9", ds.MaxDepth)
	}
}

func TestCriticalPathDepthSaturates(t *testing.T) {
	// Depths beyond the bucket range collapse into the top bucket rather
	// than indexing out of it; the run must still complete and report the
	// true (unclamped) maximum depth.
	cfg := DefaultConfig(1)
	cfg.Policy = PolicyCriticalPath
	cfg.TaskDepth = []uint32{500, 70, 63}
	eng, b, _ := rigCfg(t, cfg)
	for i := 0; i < 3; i++ {
		b.TaskReady(mkTask(uint64(i), 1_000))
	}
	eng.Run()
	if b.Executed() != 3 {
		t.Fatalf("executed %d of 3", b.Executed())
	}
	if ds := b.Dispatch(); ds.MaxDepth != 500 {
		t.Fatalf("MaxDepth = %d, want 500", ds.MaxDepth)
	}
}

func TestHeteroAffinityPlacesOnFastClass(t *testing.T) {
	// Worker 0 runs kernel 0 at double speed. Both tasks prefer it, so
	// both dispatch there (affine) and execute in half their runtime,
	// while worker 1 idles.
	cfg := DefaultConfig(2)
	cfg.Policy = PolicyHetero
	cfg.WorkerClasses = []WorkerClass{{Name: "fast", Count: 1, KernelSpeed: []float64{2}}}
	eng, b, _ := rigCfg(t, cfg)
	b.TaskReady(kernelTask(0, 0, 100_000))
	b.TaskReady(kernelTask(1, 0, 100_000))
	eng.Run()
	if ds := b.Dispatch(); ds.AffineDispatches != 2 {
		t.Fatalf("AffineDispatches = %d, want 2", ds.AffineDispatches)
	}
	start, finish := b.Schedule(2)
	for i := range start {
		if got := finish[i] - start[i]; got != 50_000 {
			t.Fatalf("task %d ran %d cycles on the fast class, want 50000", i, got)
		}
	}
}

func TestHeteroFallsBackWorkConserving(t *testing.T) {
	// Kernel 1 has no preferred class, and the fast class's queue is
	// finite: with four kernel-0 tasks and four kernel-1 tasks on a
	// 1-fast + 1-baseline machine, every worker must stay fed — the
	// policy never idles a core waiting for affinity.
	cfg := DefaultConfig(2)
	cfg.Policy = PolicyHetero
	cfg.WorkerClasses = []WorkerClass{{Name: "fast", Count: 1, KernelSpeed: []float64{2}}}
	eng, b, _ := rigCfg(t, cfg)
	const n = 8
	for i := 0; i < n; i++ {
		b.TaskReady(kernelTask(uint64(i), taskmodel.KernelID(i%2), 50_000))
	}
	eng.Run()
	if b.Executed() != n {
		t.Fatalf("executed %d of %d", b.Executed(), n)
	}
	ds := b.Dispatch()
	if ds.AffineDispatches == 0 || ds.AffineDispatches == ds.Dispatches {
		t.Fatalf("want a mix of affine and fallback dispatches, got %d of %d affine",
			ds.AffineDispatches, ds.Dispatches)
	}
}

func TestSpecDispatchesAndValidates(t *testing.T) {
	// A single core with a single slot starves the fifo path, so the spec
	// policy's only way to overlap dispatch latency is the hint channel.
	// Every speculative dispatch must be validated by a returning credit.
	cfg := DefaultConfig(1)
	cfg.LocalQueueDepth = 1
	cfg.Policy = PolicySpec
	eng, b, _ := rigCfg(t, cfg)
	const n = 16
	for i := 0; i < n; i++ {
		b.TaskReady(mkTask(uint64(i), 20_000))
	}
	eng.Run()
	if b.Executed() != n {
		t.Fatalf("executed %d of %d", b.Executed(), n)
	}
	ds := b.Dispatch()
	if ds.SpecDispatches == 0 {
		t.Fatal("spec policy never speculated under a starved fifo path")
	}
	if ds.SpecDispatches != ds.SpecValidated {
		t.Fatalf("speculation not validated: %d dispatched, %d validated",
			ds.SpecDispatches, ds.SpecValidated)
	}
}

func TestSpecBeatsFifoOnWritebackTail(t *testing.T) {
	// The point of speculation: the credit only returns after the
	// finished task's outputs write back, but the hint fires at execution
	// end — so spec dispatches and stages the next task underneath the
	// writeback, where fifo leaves the core idle. Needs the memory system
	// (without it writeback is free and there is no tail to hide).
	run := func(policy string) uint64 {
		cfg := DefaultConfig(1)
		cfg.LocalQueueDepth = 1
		cfg.Policy = policy
		eng, b, _ := rigCfgMem(t, cfg, true)
		for i := 0; i < 16; i++ {
			rt := mkTask(uint64(i), 1_000, core.ResolvedOperand{
				Base: taskmodel.Addr(0x100000 + i*0x8000),
				Buf:  uint64(0x100000 + i*0x8000),
				Size: 16 << 10, Dir: taskmodel.Out,
			})
			b.TaskReady(rt)
		}
		end := eng.Run()
		if b.Executed() != 16 {
			t.Fatalf("%s executed %d of 16", policy, b.Executed())
		}
		return uint64(end)
	}
	fifo := run(PolicyFIFO)
	spec := run(PolicySpec)
	if spec >= fifo {
		t.Fatalf("spec (%d cycles) not faster than fifo (%d cycles)", spec, fifo)
	}
}

func TestWorkerClassSpeedScalesUnderFifo(t *testing.T) {
	// Class speeds are machine state, not policy state: even plain fifo
	// runs tasks faster on a fast-class worker.
	cfg := DefaultConfig(2)
	cfg.WorkerClasses = []WorkerClass{{Name: "fast", Count: 1, Speed: 2}}
	eng, b, _ := rigCfg(t, cfg)
	b.TaskReady(mkTask(0, 100_000)) // round-robin → worker 0 (fast)
	b.TaskReady(mkTask(1, 100_000)) // → worker 1 (baseline)
	eng.Run()
	start, finish := b.Schedule(2)
	if got := finish[0] - start[0]; got != 50_000 {
		t.Fatalf("fast-class task ran %d cycles, want 50000", got)
	}
	if got := finish[1] - start[1]; got != 100_000 {
		t.Fatalf("baseline task ran %d cycles, want 100000", got)
	}
}

// pickModuloRef is the original circular scan, one modulo per probe; the
// two-range scan must agree with it exactly.
func pickModuloRef(credits []int, cursor int) (pick, next int) {
	n := len(credits)
	for i := 0; i < n; i++ {
		idx := (cursor + i) % n
		if credits[idx] > 0 {
			return idx, (idx + 1) % n
		}
	}
	return -1, cursor
}

// The round-robin free-worker scan picks the same worker and leaves the same
// cursor as the modulo scan, for every cursor position over edge-case and
// random credit patterns.
func TestPickFreeWorkerRRMatchesModuloScan(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type pattern struct {
		name    string
		credits []int
	}
	patterns := []pattern{
		{"one worker, full", []int{0}},
		{"one worker, free", []int{1}},
		{"all full", make([]int, 7)},
		{"all free", []int{2, 2, 2, 2, 2}},
		{"only first free", []int{1, 0, 0, 0, 0, 0}},
		{"only last free", []int{0, 0, 0, 0, 0, 3}},
	}
	for _, n := range []int{2, 3, 16, 64, 256} {
		for _, density := range []float64{0.01, 0.1, 0.5, 0.9} {
			c := make([]int, n)
			for i := range c {
				if rng.Float64() < density {
					c[i] = 1 + rng.Intn(2)
				}
			}
			patterns = append(patterns, pattern{fmt.Sprintf("n=%d density=%.2f", n, density), c})
		}
	}
	for _, p := range patterns {
		for cursor := range p.credits {
			b := &Backend{credits: p.credits, freeRR: cursor}
			got := b.pickFreeWorkerRR()
			want, wantNext := pickModuloRef(p.credits, cursor)
			if got != want || b.freeRR != wantNext {
				t.Fatalf("%s, cursor %d: picked %d leaving cursor %d; modulo scan picks %d leaving %d",
					p.name, cursor, got, b.freeRR, want, wantNext)
			}
		}
	}
}
