package tss

import (
	"runtime"
	"testing"

	"tasksuperscalar/internal/taskmodel"
	"tasksuperscalar/internal/workloads"
)

func streamCfg(cores int) Config {
	cfg := DefaultConfig().WithCores(cores)
	cfg.Memory = false
	return cfg
}

// collect drains a generator into a slice (recorded-program equivalent).
func collect(g Generator) []*taskmodel.Task {
	var out []*taskmodel.Task
	for {
		t, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// TestStreamedMatchesRecorded runs the same fixed-seed workload once
// pre-recorded (Run/RunTasks path) and once streamed (RunStream path) and
// requires the identical retirement schedule: every task finishes at the
// same cycle in both runs, so streaming changes memory behaviour only.
func TestStreamedMatchesRecorded(t *testing.T) {
	const n = 3000
	cfg := streamCfg(32)

	tasks := collect(workloads.NewCPIStream(n, 42))
	recorded, err := RunTasks(tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.Finish) != n {
		t.Fatalf("recorded run reported %d finish times, want %d", len(recorded.Finish), n)
	}

	type retirement struct {
		seq, cycle uint64
	}
	var retired []retirement
	scfg := cfg
	scfg.OnComplete = func(seq, cycle uint64) {
		retired = append(retired, retirement{seq, cycle})
	}
	streamed, err := RunStream(workloads.NewCPIStream(n, 42), scfg)
	if err != nil {
		t.Fatal(err)
	}

	if streamed.Tasks != recorded.Tasks {
		t.Fatalf("task counts differ: streamed %d, recorded %d", streamed.Tasks, recorded.Tasks)
	}
	if streamed.Cycles != recorded.Cycles {
		t.Fatalf("makespans differ: streamed %d, recorded %d", streamed.Cycles, recorded.Cycles)
	}
	if streamed.Start != nil || streamed.Finish != nil {
		t.Fatal("streamed run recorded a per-task schedule; it must not")
	}
	if len(retired) != n {
		t.Fatalf("observed %d retirements, want %d", len(retired), n)
	}
	var last uint64
	for i, r := range retired {
		if r.cycle != recorded.Finish[r.seq] {
			t.Fatalf("task %d finished at %d streamed vs %d recorded", r.seq, r.cycle, recorded.Finish[r.seq])
		}
		if r.cycle < last {
			t.Fatalf("retirement %d out of order: cycle %d after %d", i, r.cycle, last)
		}
		last = r.cycle
	}
}

// TestStreamedSoftwareAndSequential exercises the streamed path on the
// non-hardware runtimes.
func TestStreamedSoftwareAndSequential(t *testing.T) {
	const n = 400
	for _, kind := range []RuntimeKind{SoftwareRuntime, Sequential} {
		cfg := streamCfg(8)
		cfg.Runtime = kind
		res, err := RunStream(workloads.NewCPIStream(n, 7), cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Tasks != n {
			t.Fatalf("%v executed %d tasks, want %d", kind, res.Tasks, n)
		}
	}
}

// TestRunStreamRejectsWideTasks checks that architectural validation ends a
// stream gracefully with an error instead of a panic.
func TestRunStreamRejectsWideTasks(t *testing.T) {
	b := NewTaskBuilder()
	k := b.Kernel("wide")
	emitted := false
	gen := GeneratorFunc(func() (*Task, bool) {
		if emitted {
			return nil, false
		}
		emitted = true
		ops := make([]Operand, MaxOperands+1)
		for i := range ops {
			ops[i] = In(b.Alloc(4096), 4096)
		}
		return b.NewTask(k, 1000, ops...), true
	})
	if _, err := RunStream(gen, streamCfg(4)); err == nil {
		t.Fatal("RunStream accepted a task over the operand limit")
	}
}

// TestRunStreamPartitioned checks multi-generator streaming: disjoint
// partitions, all tasks executed, same makespan as the recorded
// RunPartitioned of the same two programs.
func TestRunStreamPartitioned(t *testing.T) {
	build := func(base Addr) *Program {
		p := NewProgramAt(base)
		k := p.Kernel("step")
		for c := 0; c < 4; c++ {
			obj := p.Alloc(16 << 10)
			for i := 0; i < 20; i++ {
				p.Spawn(k, 10_000, InOut(obj, 16<<10))
			}
		}
		return p
	}
	cfg := streamCfg(8)

	recorded, err := RunPartitioned([]*Program{build(0x1000_0000), build(0x9000_0000)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunStreamPartitioned([]Generator{
		build(0x1000_0000).Generator(),
		build(0x9000_0000).Generator(),
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Tasks != recorded.Tasks {
		t.Fatalf("task counts differ: streamed %d, recorded %d", streamed.Tasks, recorded.Tasks)
	}
	if streamed.Cycles != recorded.Cycles {
		t.Fatalf("makespans differ: streamed %d, recorded %d", streamed.Cycles, recorded.Cycles)
	}
}

// TestMillionTaskStreamBoundedMemory streams one million tasks through the
// hardware pipeline and checks that retained heap stays proportional to the
// in-flight window, not the stream length (a recorded run of the same
// workload would retain hundreds of megabytes of tasks and schedule maps).
//
// The heap is sampled during the run, after a collection every
// heapSampleEvery retirements, so per-task state that grew during the run
// and was freed only at its end would fail: every sample must stay under
// heapSampleBound, and no sample of the second half may exceed the first
// half's largest by more than heapGrowthMargin.
func TestMillionTaskStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("million-task stream is a long test; skipped with -short")
	}
	const (
		n                = 1_000_000
		heapSampleEvery  = 10_000
		heapSampleBound  = 32 << 20
		heapGrowthMargin = 2 << 20
	)
	cfg := streamCfg(64)

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	var samples []uint64 // HeapAlloc after a collection, in bytes
	var retired int
	cfg.OnComplete = func(seq, cycle uint64) {
		if retired++; retired%heapSampleEvery == 0 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			samples = append(samples, ms.HeapAlloc)
		}
	}
	res, err := RunStream(workloads.NewCPIStream(n, 42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != n/heapSampleEvery {
		t.Fatalf("took %d heap samples, want %d", len(samples), n/heapSampleEvery)
	}
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	var firstMax, secondMax, lo uint64 = 0, 0, ^uint64(0)
	for i, s := range samples {
		lo = min(lo, s)
		if i < len(samples)/2 {
			firstMax = max(firstMax, s)
		} else {
			secondMax = max(secondMax, s)
		}
		if s > heapSampleBound {
			t.Errorf("heap sample %d (after %d retirements) is %.1f MB, over the %.0f MB bound",
				i, (i+1)*heapSampleEvery, mb(s), mb(heapSampleBound))
		}
	}
	t.Logf("%d heap samples during the run: %.2f–%.2f MB, first half max %.2f MB, second half max %.2f MB",
		len(samples), mb(lo), mb(max(firstMax, secondMax)), mb(firstMax), mb(secondMax))
	if secondMax > firstMax+heapGrowthMargin {
		t.Errorf("heap kept growing during the run: second half max %.2f MB, first half max %.2f MB (margin %.0f MB)",
			mb(secondMax), mb(firstMax), mb(heapGrowthMargin))
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if res.Tasks != n {
		t.Fatalf("executed %d tasks, want %d", res.Tasks, n)
	}
	if res.Start != nil || res.Finish != nil {
		t.Fatal("streamed run recorded a per-task schedule")
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap growth %.1f MB, window max %d tasks, makespan %d cycles",
		float64(growth)/(1<<20), res.WindowMax, res.Cycles)
	if growth > 100<<20 {
		t.Fatalf("heap grew %.1f MB across a streamed run; window-bounded memory expected",
			float64(growth)/(1<<20))
	}
}
