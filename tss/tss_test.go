package tss

import (
	"testing"

	"tasksuperscalar/internal/graph"
	"tasksuperscalar/internal/workloads"
)

// chainProgram builds w independent chains of depth d (runtime per task rt).
func chainProgram(w, d int, rt uint64) *Program {
	p := NewProgram()
	k := p.Kernel("step")
	for c := 0; c < w; c++ {
		obj := p.Alloc(16 << 10)
		for i := 0; i < d; i++ {
			p.Spawn(k, rt, InOut(obj, 16<<10))
		}
	}
	return p
}

func TestSequentialMatchesTotalWork(t *testing.T) {
	p := chainProgram(4, 5, 10_000)
	cfg := DefaultConfig().WithCores(4)
	cfg.Runtime = Sequential
	cfg.Memory = false
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential time is total work plus small dispatch overheads.
	if res.Cycles < res.TotalWorkCycles {
		t.Fatalf("sequential cycles %d below total work %d", res.Cycles, res.TotalWorkCycles)
	}
	if float64(res.Cycles) > 1.01*float64(res.TotalWorkCycles) {
		t.Fatalf("sequential overhead too high: %d vs work %d", res.Cycles, res.TotalWorkCycles)
	}
}

func TestHardwareSpeedsUpIndependentChains(t *testing.T) {
	p := chainProgram(8, 10, 50_000)
	seqCfg := DefaultConfig().WithCores(8)
	seqCfg.Runtime = Sequential
	seqCfg.Memory = false
	seq, err := Run(p, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	hwCfg := DefaultConfig().WithCores(8)
	hwCfg.Memory = false
	hw, err := Run(p, hwCfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := seq.SpeedupOver(seq)
	if sp != 1 {
		t.Fatalf("self speedup = %f, want 1", sp)
	}
	got := hw.SpeedupOver(seq)
	if got < 6 {
		t.Fatalf("8 chains on 8 cores speedup = %.2f, want >= 6", got)
	}
	if hw.DecodeRateCycles <= 0 {
		t.Fatal("decode rate missing")
	}
}

func TestSoftwareRuntimeRuns(t *testing.T) {
	p := chainProgram(8, 10, 50_000)
	cfg := DefaultConfig().WithCores(8)
	cfg.Runtime = SoftwareRuntime
	cfg.Memory = false
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 80 {
		t.Fatalf("software run executed %d tasks, want 80", res.Tasks)
	}
	// The decoder is serialized: single-operand tasks decode at
	// softrt's decodeBase + decodePerOp + generation cost ~ 1600 cycles.
	if res.DecodeRateCycles < 1500 {
		t.Fatalf("software decode rate %.0f cycles/task, want >= 1500", res.DecodeRateCycles)
	}
}

// TestSoftwareRunAllocsPerTask pins the software runtime's allocations per
// task on warm 256-core runs of three Figure 16 workloads. What remains is
// machine construction, the dependency graph's edge lists and, where the
// whole program is in flight at once (H264), one dispatch record and one
// operand slice per task. A runtime that built a map and two closures per
// task and allocated every dispatch record afresh read 7.0, 11.7 and 8.4.
func TestSoftwareRunAllocsPerTask(t *testing.T) {
	for _, c := range []struct {
		workload string
		ceiling  float64
	}{{"cholesky", 3.0}, {"h264", 9.5}, {"knn", 3.5}} {
		wl, _ := workloads.ByName(c.workload)
		tasks := wl.Gen(2500, 42).Tasks
		cfg := DefaultConfig().WithCores(256)
		cfg.Memory = false
		cfg.Runtime = SoftwareRuntime
		perTask := testing.AllocsPerRun(3, func() {
			if _, err := RunTasks(tasks, cfg); err != nil {
				t.Fatal(err)
			}
		}) / float64(len(tasks))
		t.Logf("%s: %d tasks, %.2f allocations per task", c.workload, len(tasks), perTask)
		if perTask > c.ceiling {
			t.Errorf("%s: a warm software run allocated %.2f times per task, want at most %.1f",
				c.workload, perTask, c.ceiling)
		}
	}
}

func TestHardwareDecodeFasterThanSoftware(t *testing.T) {
	p := chainProgram(16, 8, 20_000)
	hwCfg := DefaultConfig().WithCores(16)
	hwCfg.Memory = false
	hw, err := Run(p, hwCfg)
	if err != nil {
		t.Fatal(err)
	}
	swCfg := DefaultConfig().WithCores(16)
	swCfg.Runtime = SoftwareRuntime
	swCfg.Memory = false
	sw, err := Run(p, swCfg)
	if err != nil {
		t.Fatal(err)
	}
	if hw.DecodeRateCycles >= sw.DecodeRateCycles {
		t.Fatalf("hardware decode (%.0f cy) not faster than software (%.0f cy)",
			hw.DecodeRateCycles, sw.DecodeRateCycles)
	}
}

func TestRunWithMemorySystem(t *testing.T) {
	p := chainProgram(4, 4, 30_000)
	cfg := DefaultConfig().WithCores(4)
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Fetches == 0 {
		t.Fatal("memory system saw no fetches")
	}
	if res.Mem.Writebacks == 0 {
		t.Fatal("memory system saw no writebacks")
	}
	// Memory overhead must cost something versus the no-memory run.
	cfg2 := cfg
	cfg2.Memory = false
	res2, err := Run(p, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= res2.Cycles {
		t.Fatalf("memory-modeled run (%d) not slower than free-memory run (%d)",
			res.Cycles, res2.Cycles)
	}
}

// An OVT output-buffer grant can reach a consumer's TRS before the ORT's
// operand info for the same operand, which is still in flight on the ring.
// Knn on 64 cores with the memory hierarchy on produces that ordering; the
// TRS must net the early grant when the operand info lands, and every
// generated task must retire.
func TestEarlyOutputGrantRetiresAllTasks(t *testing.T) {
	wl, _ := workloads.ByName("knn")
	b := wl.Gen(2500, 42)
	cfg := DefaultConfig().WithCores(64)
	cfg.Memory = true
	res, err := RunTasks(b.Tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != uint64(len(b.Tasks)) {
		t.Fatalf("executed %d of %d tasks", res.Tasks, len(b.Tasks))
	}
}

func TestScheduleValidAgainstOracle(t *testing.T) {
	p := NewProgram()
	k := p.Kernel("k")
	// A few objects with mixed operations.
	objs := make([]Addr, 6)
	for i := range objs {
		objs[i] = p.Alloc(8 << 10)
	}
	for i := 0; i < 120; i++ {
		a := objs[i%len(objs)]
		b := objs[(i*7+3)%len(objs)]
		switch i % 3 {
		case 0:
			p.Spawn(k, 5_000, In(a, 8<<10), Out(b, 8<<10))
		case 1:
			p.Spawn(k, 7_000, InOut(a, 8<<10))
		case 2:
			p.Spawn(k, 3_000, In(a, 8<<10), In(b, 8<<10), Out(b, 8<<10))
		}
	}
	cfg := DefaultConfig().WithCores(16)
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Build(p.Tasks(), graph.Options{Renaming: true})
	if err := g.ValidateSchedule(res.Start, res.Finish); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsTooManyOperands(t *testing.T) {
	p := NewProgram()
	k := p.Kernel("k")
	var ops []Operand
	for i := 0; i < MaxOperands+1; i++ {
		ops = append(ops, In(p.Alloc(4096), 4096))
	}
	p.Spawn(k, 100, ops...)
	if _, err := Run(p, DefaultConfig().WithCores(2)); err == nil {
		t.Fatal("expected operand-limit validation error")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig().WithCores(0)
	if err := cfg.Validate(); err == nil {
		t.Fatal("0 cores must be rejected")
	}
	cfg = DefaultConfig()
	cfg.Frontend.NumTRS = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("0 TRS must be rejected")
	}
}

func TestUnitConversions(t *testing.T) {
	if Microseconds(1) != 3200 {
		t.Fatalf("Microseconds(1) = %d, want 3200", Microseconds(1))
	}
	if Nanoseconds(100) != 320 {
		t.Fatalf("Nanoseconds(100) = %d, want 320", Nanoseconds(100))
	}
	if got := CyclesToNs(3200); got != 1000 {
		t.Fatalf("CyclesToNs(3200) = %f, want 1000", got)
	}
}

func TestAllocAlignment(t *testing.T) {
	p := NewProgram()
	a := p.Alloc(100)
	b := p.Alloc(100)
	if a == b {
		t.Fatal("allocations alias")
	}
	if uint64(b-a) < 0x1000 {
		t.Fatalf("allocations not page separated: %#x %#x", a, b)
	}
}

func TestRuntimeKindString(t *testing.T) {
	if HardwarePipeline.String() == "" || SoftwareRuntime.String() == "" || Sequential.String() == "" {
		t.Fatal("RuntimeKind names missing")
	}
}
