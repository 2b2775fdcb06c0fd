package backend

import (
	"slices"
	"testing"

	"tasksuperscalar/internal/core"
	"tasksuperscalar/internal/mem"
	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// finishRecorder counts completions.
type finishRecorder struct {
	done []core.TaskID
}

func (f *finishRecorder) TaskFinished(from noc.NodeID, id core.TaskID) {
	f.done = append(f.done, id)
}

func rig(t *testing.T, cores int, withMem bool) (*sim.Engine, *Backend, *finishRecorder) {
	t.Helper()
	eng := sim.NewEngine()
	net := noc.NewNetwork(eng, noc.DefaultConfig())
	var coreNodes []noc.NodeID
	for i := 0; i < cores; i++ {
		coreNodes = append(coreNodes, net.AddCore("core"))
	}
	var m *mem.System
	if withMem {
		m = mem.NewSystem(eng, net, coreNodes)
	}
	b := New(eng, net, coreNodes, DefaultConfig(cores), m)
	fr := &finishRecorder{}
	b.SetFinishHandler(fr)
	net.Build()
	return eng, b, fr
}

func mkTask(seq uint64, runtime uint64, ops ...core.ResolvedOperand) *core.ReadyTask {
	return &core.ReadyTask{
		ID:       core.TaskID{TRS: 0, Slot: uint32(seq)},
		Task:     &taskmodel.Task{Seq: seq, Runtime: runtime},
		Operands: ops,
	}
}

func TestBackendExecutesTask(t *testing.T) {
	eng, b, fr := rig(t, 2, false)
	b.TaskReady(mkTask(0, 1000))
	eng.Run()
	if len(fr.done) != 1 {
		t.Fatalf("finished %d tasks, want 1", len(fr.done))
	}
	if b.Executed() != 1 {
		t.Fatalf("Executed() = %d, want 1", b.Executed())
	}
	start, finish := b.Schedule(1)
	if finish[0]-start[0] < 1000 {
		t.Fatalf("task ran %d cycles, want >= 1000", finish[0]-start[0])
	}
}

// Schedule hands its recorded tables over, cut or zero-extended to the
// length asked for. A reused backend records its next run into new tables,
// so the returned ones keep the first run's times.
func TestScheduleHandsOverTables(t *testing.T) {
	eng, b, _ := rig(t, 1, false)
	run := func() {
		b.TaskReady(mkTask(0, 1_000))
		b.TaskReady(mkTask(1, 1_000))
		eng.Run()
	}
	run()
	start, finish := b.Schedule(2)
	if len(start) != 2 || len(finish) != 2 || finish[1] == 0 {
		t.Fatalf("Schedule(2) = %v, %v; want both tasks' times", start, finish)
	}
	want := slices.Clone(start)
	b.ResetRunStats()
	run()
	if !slices.Equal(start, want) {
		t.Fatalf("the second run rewrote the first run's start times: %v, want %v", start, want)
	}
	again, _ := b.Schedule(3)
	if len(again) != 3 || again[2] != 0 || again[0] <= want[1] {
		t.Fatalf("second run's Schedule(3) = %v; want 3 entries, starts after %d, the third zero", again, want[1])
	}
}

func TestBackendParallelism(t *testing.T) {
	eng, b, fr := rig(t, 4, false)
	for i := 0; i < 4; i++ {
		b.TaskReady(mkTask(uint64(i), 100_000))
	}
	end := eng.Run()
	if len(fr.done) != 4 {
		t.Fatalf("finished %d, want 4", len(fr.done))
	}
	// Four independent tasks on four cores run concurrently: makespan
	// must be near one task runtime, not four.
	if end > 150_000 {
		t.Fatalf("4 tasks on 4 cores took %d cycles; not parallel", end)
	}
}

func TestBackendSerializesOnOneCore(t *testing.T) {
	eng, b, _ := rig(t, 1, false)
	for i := 0; i < 3; i++ {
		b.TaskReady(mkTask(uint64(i), 50_000))
	}
	end := eng.Run()
	if end < 150_000 {
		t.Fatalf("3 tasks on 1 core took %d cycles; they must serialize", end)
	}
}

func TestBackendLocalQueuePrefetch(t *testing.T) {
	// With memory enabled and queue depth 2, the second task's operand
	// staging overlaps the first task's execution.
	eng, b, _ := rig(t, 1, true)
	op := core.ResolvedOperand{Base: 0x10000, Buf: 0x10000, Size: 32 << 10, Dir: taskmodel.In}
	op2 := core.ResolvedOperand{Base: 0x20000, Buf: 0x20000, Size: 32 << 10, Dir: taskmodel.In}
	b.TaskReady(mkTask(0, 100_000, op))
	b.TaskReady(mkTask(1, 100_000, op2))
	end := eng.Run()
	// Staging 32 KB from DRAM costs ~18k cycles; overlapped it should
	// appear only once.
	if end > 245_000 {
		t.Fatalf("makespan %d: staging not overlapped with execution", end)
	}
	if b.Executed() != 2 {
		t.Fatalf("executed %d, want 2", b.Executed())
	}
}

func TestBackendWritebackGatesFinish(t *testing.T) {
	eng, b, fr := rig(t, 1, true)
	out := core.ResolvedOperand{Base: 0x30000, Buf: 0x30000, Size: 16 << 10, Dir: taskmodel.Out}
	b.TaskReady(mkTask(0, 1000, out))
	eng.Run()
	if len(fr.done) != 1 {
		t.Fatal("task with output never finished")
	}
	_, finish := b.Schedule(1)
	// Finish must include writeback time beyond the raw runtime.
	if finish[0] <= 1000 {
		t.Fatalf("finish at %d does not include writeback", finish[0])
	}
}

func TestBackendUtilization(t *testing.T) {
	eng, b, _ := rig(t, 2, false)
	b.TaskReady(mkTask(0, 10_000))
	b.TaskReady(mkTask(1, 10_000))
	end := eng.Run()
	util := b.Utilization(end)
	if util < 1.0 || util > 2.0 {
		t.Fatalf("utilization = %.2f busy cores, want in (1,2]", util)
	}
}

func TestBackendManyTasksAllComplete(t *testing.T) {
	eng, b, fr := rig(t, 8, false)
	const n = 500
	for i := 0; i < n; i++ {
		b.TaskReady(mkTask(uint64(i), uint64(1000+i)))
	}
	eng.Run()
	if len(fr.done) != n {
		t.Fatalf("finished %d, want %d", len(fr.done), n)
	}
	if b.ReadyPeak() == 0 {
		t.Fatal("ready queue peak not recorded")
	}
}

func TestBackendScalarOperandsSkipStaging(t *testing.T) {
	eng, b, fr := rig(t, 1, true)
	sc := core.ResolvedOperand{Dir: taskmodel.Scalar, Size: 8}
	b.TaskReady(mkTask(0, 1000, sc))
	eng.Run()
	if len(fr.done) != 1 {
		t.Fatal("scalar-only task never finished")
	}
}

func TestHeterogeneousCoreSpeeds(t *testing.T) {
	eng := sim.NewEngine()
	net := noc.NewNetwork(eng, noc.DefaultConfig())
	coreNodes := []noc.NodeID{net.AddCore("slow"), net.AddCore("fast")}
	cfg := DefaultConfig(2)
	// The class takes the first core; the second is a baseline core.
	cfg.WorkerClasses = []WorkerClass{{Name: "slow", Count: 1, Speed: 0.5}}
	b := New(eng, net, coreNodes, cfg, nil)
	b.SetFinishHandler(&finishRecorder{})
	net.Build()
	// Round-robin dispatch gives task 0 to core 0, task 1 to core 1.
	b.TaskReady(mkTask(0, 100_000))
	b.TaskReady(mkTask(1, 100_000))
	eng.Run()
	start, finish := b.Schedule(2)
	slow := finish[0] - start[0]
	fast := finish[1] - start[1]
	if fast != 100_000 {
		t.Fatalf("fast core ran %d cycles, want 100000", fast)
	}
	if slow != 200_000 {
		t.Fatalf("half-speed core ran %d cycles, want 200000", slow)
	}
}

func TestStealingBalancesLoad(t *testing.T) {
	// Two cores, four tasks: one long task plus three short ones. The
	// GTU's round-robin puts two tasks on each core; without stealing the
	// short task queued behind the long one waits; with stealing the idle
	// core takes it.
	run := func(stealing bool) uint64 {
		eng := sim.NewEngine()
		net := noc.NewNetwork(eng, noc.DefaultConfig())
		coreNodes := []noc.NodeID{net.AddCore("a"), net.AddCore("b")}
		cfg := DefaultConfig(2)
		cfg.Stealing = stealing
		b := New(eng, net, coreNodes, cfg, nil)
		b.SetFinishHandler(&finishRecorder{})
		net.Build()
		b.TaskReady(mkTask(0, 1_000_000)) // long, core 0
		b.TaskReady(mkTask(1, 10_000))    // core 1
		b.TaskReady(mkTask(2, 10_000))    // queued on core 0 behind the long task
		b.TaskReady(mkTask(3, 10_000))    // queued on core 1
		end := eng.Run()
		if b.Executed() != 4 {
			t.Fatalf("executed %d of 4 (stealing=%v)", b.Executed(), stealing)
		}
		return uint64(end)
	}
	without := run(false)
	with := run(true)
	if with >= without {
		t.Fatalf("stealing did not help: %d cycles with vs %d without", with, without)
	}
}

func TestStealingCountsSteals(t *testing.T) {
	eng := sim.NewEngine()
	net := noc.NewNetwork(eng, noc.DefaultConfig())
	coreNodes := []noc.NodeID{net.AddCore("a"), net.AddCore("b")}
	cfg := DefaultConfig(2)
	cfg.Stealing = true
	b := New(eng, net, coreNodes, cfg, nil)
	b.SetFinishHandler(&finishRecorder{})
	net.Build()
	b.TaskReady(mkTask(0, 2_000_000))
	b.TaskReady(mkTask(1, 1_000))
	b.TaskReady(mkTask(2, 1_000))
	b.TaskReady(mkTask(3, 1_000))
	eng.Run()
	if b.Steals() == 0 {
		t.Fatal("no steals recorded in an imbalanced run")
	}
}
