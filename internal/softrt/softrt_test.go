package softrt

import (
	"testing"

	"tasksuperscalar/internal/core"
	"tasksuperscalar/internal/graph"
	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// instantBackend runs tasks with unlimited parallelism after their runtime.
type instantBackend struct {
	eng    *sim.Engine
	rt     *Runtime
	node   noc.NodeID
	start  map[uint64]uint64
	finish map[uint64]uint64
}

func (b *instantBackend) TaskReady(rt *core.ReadyTask) {
	b.start[rt.Task.Seq] = uint64(b.eng.Now())
	b.eng.Schedule(sim.Cycle(rt.Task.Runtime), func() {
		b.finish[rt.Task.Seq] = uint64(b.eng.Now())
		b.rt.TaskFinished(b.node, rt.ID)
	})
}

func runSoft(t *testing.T, tasks []*taskmodel.Task) (*Runtime, *instantBackend, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	be := &instantBackend{eng: eng, start: map[uint64]uint64{}, finish: map[uint64]uint64{}}
	rt := New(eng, taskmodel.NewSliceStream(tasks), be, 0)
	be.rt = rt
	rt.Start()
	eng.Run()
	return rt, be, eng
}

func opr(a taskmodel.Addr, d taskmodel.Dir) taskmodel.Operand {
	return taskmodel.Operand{Base: a, Size: 1024, Dir: d}
}

func TestSoftDecodeSerializes(t *testing.T) {
	var tasks []*taskmodel.Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, &taskmodel.Task{
			Runtime:  100,
			Operands: []taskmodel.Operand{opr(taskmodel.Addr(0x1000*(i+1)), taskmodel.Out)},
		})
	}
	rt, be, _ := runSoft(t, tasks)
	s := rt.Snapshot()
	if s.Decoded != 10 || s.Retired != 10 {
		t.Fatalf("decoded/retired = %d/%d, want 10/10", s.Decoded, s.Retired)
	}
	// ~700ns/task at one operand: > 1500 cycles between decodes.
	if s.DecodeRate < 1500 {
		t.Fatalf("decode rate %.0f cycles/task, want >= 1500 (serialized software decode)", s.DecodeRate)
	}
	// Starts are spaced by at least the decode rate.
	if be.start[9] < 9*1500 {
		t.Fatalf("10th task started at %d; decode did not serialize", be.start[9])
	}
}

func TestSoftDependenciesRespected(t *testing.T) {
	obj := taskmodel.Addr(0x4000)
	tasks := []*taskmodel.Task{
		{Runtime: 50_000, Operands: []taskmodel.Operand{opr(obj, taskmodel.Out)}},
		{Runtime: 1000, Operands: []taskmodel.Operand{opr(obj, taskmodel.In)}},
		{Runtime: 1000, Operands: []taskmodel.Operand{opr(obj, taskmodel.InOut)}},
	}
	_, be, _ := runSoft(t, tasks)
	g := graph.Build(tasks, graph.Options{Renaming: true})
	start := []uint64{be.start[0], be.start[1], be.start[2]}
	finish := []uint64{be.finish[0], be.finish[1], be.finish[2]}
	if err := g.ValidateSchedule(start, finish); err != nil {
		t.Fatal(err)
	}
}

func TestSoftRenamedSemantics(t *testing.T) {
	// Reader then writer of the same object: StarSs renames, so the
	// writer must not wait for the long reader.
	obj := taskmodel.Addr(0x4000)
	tasks := []*taskmodel.Task{
		{Runtime: 10, Operands: []taskmodel.Operand{opr(obj, taskmodel.Out)}},
		{Runtime: 5_000_000, Operands: []taskmodel.Operand{opr(obj, taskmodel.In)}},
		{Runtime: 10, Operands: []taskmodel.Operand{opr(obj, taskmodel.Out)}},
	}
	_, be, _ := runSoft(t, tasks)
	if be.start[2] >= be.finish[1] {
		t.Fatalf("renamed writer waited for reader: start %d vs finish %d",
			be.start[2], be.finish[1])
	}
}

func TestSoftInfiniteWindow(t *testing.T) {
	// A long chain head blocks execution while decode races ahead: the
	// window grows without bound (unlike the hardware TRS).
	obj := taskmodel.Addr(0x8000)
	var tasks []*taskmodel.Task
	tasks = append(tasks, &taskmodel.Task{
		Runtime:  50_000_000,
		Operands: []taskmodel.Operand{opr(obj, taskmodel.Out)},
	})
	for i := 0; i < 500; i++ {
		tasks = append(tasks, &taskmodel.Task{
			Runtime:  100,
			Operands: []taskmodel.Operand{opr(obj, taskmodel.InOut)},
		})
	}
	rt, _, _ := runSoft(t, tasks)
	s := rt.Snapshot()
	if s.WindowMax < 400 {
		t.Fatalf("window max %d; the software window must be unbounded", s.WindowMax)
	}
}

func TestSoftWakeupChain(t *testing.T) {
	// Diamond: 0 -> {1,2} -> 3.
	a, b, c := taskmodel.Addr(0x1000), taskmodel.Addr(0x2000), taskmodel.Addr(0x3000)
	tasks := []*taskmodel.Task{
		{Runtime: 1000, Operands: []taskmodel.Operand{opr(a, taskmodel.Out)}},
		{Runtime: 1000, Operands: []taskmodel.Operand{opr(a, taskmodel.In), opr(b, taskmodel.Out)}},
		{Runtime: 2000, Operands: []taskmodel.Operand{opr(a, taskmodel.In), opr(c, taskmodel.Out)}},
		{Runtime: 1000, Operands: []taskmodel.Operand{opr(b, taskmodel.In), opr(c, taskmodel.In)}},
	}
	rt, be, _ := runSoft(t, tasks)
	if rt.Snapshot().Retired != 4 {
		t.Fatalf("retired %d, want 4", rt.Snapshot().Retired)
	}
	if be.start[3] < be.finish[1] || be.start[3] < be.finish[2] {
		t.Fatal("join task started before both branches finished")
	}
}

func TestSoftScalarOperands(t *testing.T) {
	tasks := []*taskmodel.Task{
		{Runtime: 100, Operands: []taskmodel.Operand{{Dir: taskmodel.Scalar, Size: 8}}},
	}
	rt, _, _ := runSoft(t, tasks)
	if rt.Snapshot().Retired != 1 {
		t.Fatal("scalar-only task not retired")
	}
}
