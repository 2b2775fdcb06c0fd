package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tasksuperscalar/internal/graph"
	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// mockBackend executes every ready task after its runtime with unlimited
// parallelism, so the frontend's dependency decoding is the only ordering
// constraint under test.
type mockBackend struct {
	eng  *sim.Engine
	fe   *Frontend
	node noc.NodeID

	start  map[uint64]sim.Cycle
	finish map[uint64]sim.Cycle
	ready  []*ReadyTask
	bufs   map[uint64]uint64 // task seq -> resolved buf of operand 0
}

func (m *mockBackend) Node() noc.NodeID { return m.node }

func (m *mockBackend) TaskReady(rt *ReadyTask) {
	m.start[rt.Task.Seq] = m.eng.Now()
	m.ready = append(m.ready, rt)
	if len(rt.Operands) > 0 {
		m.bufs[rt.Task.Seq] = rt.Operands[0].Buf
	}
	m.eng.Schedule(sim.Cycle(rt.Task.Runtime), func() {
		m.finish[rt.Task.Seq] = m.eng.Now()
		m.fe.TaskFinished(m.node, rt.ID)
	})
}

type rig struct {
	eng *sim.Engine
	fe  *Frontend
	gen *Generator
	mb  *mockBackend
}

// buildRig assembles a frontend with a mock backend over the given tasks.
func buildRig(t testing.TB, cfg Config, tasks []*taskmodel.Task) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := noc.NewNetwork(eng, noc.DefaultConfig())
	genNode := net.AddCore("generator")
	fe := New(eng, net, cfg, NewNullCopyEngine(eng))
	mb := &mockBackend{
		eng:    eng,
		fe:     fe,
		node:   net.AddGlobalNode("mock-backend"),
		start:  make(map[uint64]sim.Cycle),
		finish: make(map[uint64]sim.Cycle),
		bufs:   make(map[uint64]uint64),
	}
	fe.SetDispatcher(mb)
	net.Build()
	gen := NewGenerator(fe, genNode, taskmodel.NewSliceStream(tasks))
	return &rig{eng: eng, fe: fe, gen: gen, mb: mb}
}

func (r *rig) run(t testing.TB, want int) {
	t.Helper()
	r.gen.Start()
	r.eng.Run()
	if len(r.mb.finish) != want {
		t.Fatalf("completed %d tasks, want %d (decoded %d, window %d)",
			len(r.mb.finish), want, r.fe.decoded, r.fe.WindowOccupancy())
	}
	if got := r.fe.WindowOccupancy(); got != 0 {
		t.Fatalf("window not drained: %d tasks still in flight", got)
	}
}

func tk(run uint64, ops ...taskmodel.Operand) *taskmodel.Task {
	return &taskmodel.Task{Runtime: run, Operands: ops}
}

func opIn(a taskmodel.Addr) taskmodel.Operand {
	return taskmodel.Operand{Base: a, Size: 4096, Dir: taskmodel.In}
}
func opOut(a taskmodel.Addr) taskmodel.Operand {
	return taskmodel.Operand{Base: a, Size: 4096, Dir: taskmodel.Out}
}
func opInOut(a taskmodel.Addr) taskmodel.Operand {
	return taskmodel.Operand{Base: a, Size: 4096, Dir: taskmodel.InOut}
}
func opScalar() taskmodel.Operand {
	return taskmodel.Operand{Size: 8, Dir: taskmodel.Scalar}
}

func TestProducerConsumer(t *testing.T) {
	tasks := []*taskmodel.Task{
		tk(1000, opOut(0x10000)),
		tk(1000, opIn(0x10000)),
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 2)
	if r.mb.start[1] < r.mb.finish[0] {
		t.Fatalf("consumer started at %d before producer finished at %d",
			r.mb.start[1], r.mb.finish[0])
	}
}

func TestConsumerReceivesProducerBuffer(t *testing.T) {
	tasks := []*taskmodel.Task{
		tk(100, opOut(0x10000)),
		tk(100, opOut(0x10000)), // renamed: gets a fresh buffer
		tk(100, opIn(0x10000)),
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 3)
	// Task 1's output was renamed (a previous version existed), so its
	// buffer is in the OVT rename region, and the consumer reads it.
	if r.mb.bufs[1] == 0x10000 {
		t.Fatal("second writer not renamed")
	}
	if r.mb.bufs[2] != r.mb.bufs[1] {
		t.Fatalf("consumer reads %#x, want producer's buffer %#x",
			r.mb.bufs[2], r.mb.bufs[1])
	}
	// Task 0 wrote in place (no previous version to protect).
	if r.mb.bufs[0] != 0x10000 {
		t.Fatalf("first writer buffer = %#x, want home address", r.mb.bufs[0])
	}
}

func TestRenamingBreaksWaR(t *testing.T) {
	// Long-running reader, then a writer of the same object. With
	// renaming, the writer must not wait for the reader.
	tasks := []*taskmodel.Task{
		tk(10, opOut(0x10000)),
		tk(1_000_000, opIn(0x10000)),
		tk(10, opOut(0x10000)),
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 3)
	if r.mb.start[2] >= r.mb.finish[1] {
		t.Fatalf("renamed writer waited for reader: start %d vs reader finish %d",
			r.mb.start[2], r.mb.finish[1])
	}

	// Without renaming the writer serializes behind the reader.
	cfg := DefaultConfig()
	cfg.Renaming = false
	r2 := buildRig(t, cfg, []*taskmodel.Task{
		tk(10, opOut(0x10000)),
		tk(1_000_000, opIn(0x10000)),
		tk(10, opOut(0x10000)),
	})
	r2.run(t, 3)
	if r2.mb.start[2] < r2.mb.finish[1] {
		t.Fatalf("unrenamed writer did not wait: start %d vs reader finish %d",
			r2.mb.start[2], r2.mb.finish[1])
	}
}

func TestInOutChainSerializes(t *testing.T) {
	tasks := []*taskmodel.Task{
		tk(5000, opInOut(0x20000)),
		tk(5000, opInOut(0x20000)),
		tk(5000, opInOut(0x20000)),
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 3)
	if r.mb.start[1] < r.mb.finish[0] || r.mb.start[2] < r.mb.finish[1] {
		t.Fatalf("inout chain overlapped: starts %d,%d finishes %d,%d",
			r.mb.start[1], r.mb.start[2], r.mb.finish[0], r.mb.finish[1])
	}
	// All three write in place at the home address.
	for seq := uint64(0); seq < 3; seq++ {
		if r.mb.bufs[seq] != 0x20000 {
			t.Fatalf("inout task %d buffer = %#x, want home address", seq, r.mb.bufs[seq])
		}
	}
}

func TestInOutWaitsForReaders(t *testing.T) {
	// Producer, long reader, then an inout. The inout writes in place and
	// must wait for the reader to release the previous version.
	tasks := []*taskmodel.Task{
		tk(10, opOut(0x30000)),
		tk(500_000, opIn(0x30000)),
		tk(10, opInOut(0x30000)),
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 3)
	if r.mb.start[2] < r.mb.finish[1] {
		t.Fatalf("inout started at %d before reader finished at %d",
			r.mb.start[2], r.mb.finish[1])
	}
}

func TestScalarOnlyTask(t *testing.T) {
	tasks := []*taskmodel.Task{tk(10, opScalar(), opScalar())}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 1)
}

func TestZeroOperandTask(t *testing.T) {
	tasks := []*taskmodel.Task{tk(10)}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 1)
}

func TestManyOperandsUseIndirectBlocks(t *testing.T) {
	var ops []taskmodel.Operand
	for i := 0; i < MaxOperands; i++ {
		ops = append(ops, opOut(taskmodel.Addr(0x40000+i*0x1000)))
	}
	tasks := []*taskmodel.Task{tk(10, ops...)}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 1)
	st := r.fe.Stats(r.eng.Now())
	if st.TRSBytesAllocated != 4*trsBlockBytes {
		t.Fatalf("19-operand task allocated %d bytes, want 4 blocks = %d",
			st.TRSBytesAllocated, 4*trsBlockBytes)
	}
}

func TestBlocksForOperands(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 4: 1, 5: 2, 9: 2, 10: 3, 14: 3, 15: 4, 19: 4}
	for n, want := range cases {
		if got := blocksForOperands(n); got != want {
			t.Errorf("blocksForOperands(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestChainForwarding(t *testing.T) {
	// One producer, many readers: the readers chain and all receive data.
	tasks := []*taskmodel.Task{tk(1000, opOut(0x50000))}
	for i := 0; i < 10; i++ {
		tasks = append(tasks, tk(100, opIn(0x50000)))
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 11)
	for seq := uint64(1); seq <= 10; seq++ {
		if r.mb.start[seq] < r.mb.finish[0] {
			t.Fatalf("reader %d started before producer finished", seq)
		}
		if r.mb.bufs[seq] != r.mb.bufs[0] {
			t.Fatalf("reader %d buffer %#x, want producer's %#x", seq, r.mb.bufs[seq], r.mb.bufs[0])
		}
	}
	st := r.fe.Stats(r.eng.Now())
	if st.ChainMax < 10 {
		t.Fatalf("chain stats missed the 10-reader chain: max %d", st.ChainMax)
	}
}

func TestChainingDisabledStillCorrect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Chaining = false
	tasks := []*taskmodel.Task{tk(1000, opOut(0x50000))}
	for i := 0; i < 10; i++ {
		tasks = append(tasks, tk(100, opIn(0x50000)))
	}
	r := buildRig(t, cfg, tasks)
	r.run(t, 11)
	for seq := uint64(1); seq <= 10; seq++ {
		if r.mb.start[seq] < r.mb.finish[0] {
			t.Fatalf("reader %d started before producer finished", seq)
		}
	}

	// Reader B registers with reader A after A's data arrived, so A sends
	// it the data at once and does not list it. Writer C needs 4 of the 5
	// blocks of a one-station TRS, so it waits for A to retire and takes
	// A's slot. The final assertions guard what follows: C does not
	// forward to A's old consumers when it finishes (B would see a
	// duplicate data ready), and no consumer list survives the run.
	cfg.NumTRS = 1
	cfg.TRSBytesEach = 5 * trsBlockBytes
	var writes []taskmodel.Operand
	for i := 0; i < 15; i++ {
		writes = append(writes, opOut(taskmodel.Addr(0x70000+i*0x1000)))
	}
	r = buildRig(t, cfg, []*taskmodel.Task{
		tk(2000, opIn(0x60000)),  // A
		tk(20000, opIn(0x60000)), // B
		tk(100, writes...),       // C
	})
	r.run(t, 3)
	if r.mb.start[1] >= r.mb.finish[0] {
		t.Fatal("reader B did not get its data from a live reader A")
	}
	if a, c := r.mb.ready[0], r.mb.ready[2]; a.Task.Seq != 0 || c.Task.Seq != 2 || a.ID != c.ID {
		t.Fatalf("writer C did not reuse reader A's slot (A %v, C %v)", a.ID, c.ID)
	}
	if n := r.fe.trs[0].consumers.Len(); n != 0 {
		t.Fatalf("%d consumer lists left after every task retired", n)
	}
}

func TestWindowAccounting(t *testing.T) {
	var tasks []*taskmodel.Task
	for i := 0; i < 50; i++ {
		tasks = append(tasks, tk(10_000, opOut(taskmodel.Addr(0x100000+i*0x1000))))
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 50)
	st := r.fe.Stats(r.eng.Now())
	if st.Decoded != 50 || st.Retired != 50 {
		t.Fatalf("decoded/retired = %d/%d, want 50/50", st.Decoded, st.Retired)
	}
	if st.WindowMax < 2 {
		t.Fatalf("window max = %d, expected overlap of independent tasks", st.WindowMax)
	}
}

func TestTinyTRSStillCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumTRS = 1
	cfg.TRSBytesEach = 8 * trsBlockBytes // window of 8 single-block tasks
	var tasks []*taskmodel.Task
	for i := 0; i < 100; i++ {
		tasks = append(tasks, tk(1000, opOut(taskmodel.Addr(0x100000+i*0x1000))))
	}
	r := buildRig(t, cfg, tasks)
	r.run(t, 100)
	st := r.fe.Stats(r.eng.Now())
	if st.WindowMax > 8 {
		t.Fatalf("window max %d exceeds TRS capacity of 8 tasks", st.WindowMax)
	}
}

func TestTinyORTStallsAndRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumORT = 1
	cfg.ORTBytesEach = 2 * ortWays * ortEntryBytes // 2 sets, 32 entries
	var tasks []*taskmodel.Task
	for i := 0; i < 200; i++ {
		tasks = append(tasks, tk(500, opOut(taskmodel.Addr(0x100000+i*0x1000))))
	}
	r := buildRig(t, cfg, tasks)
	r.run(t, 200)
	st := r.fe.Stats(r.eng.Now())
	if st.ORTStallEvents == 0 {
		t.Fatal("expected ORT-full stalls with a 32-entry ORT and 200 live objects")
	}
}

func TestTinyOVTStallsAndRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumORT = 1
	cfg.OVTBytesEach = 16 * ovtEntryBytes // 16 live versions
	var tasks []*taskmodel.Task
	for i := 0; i < 200; i++ {
		tasks = append(tasks, tk(500, opOut(taskmodel.Addr(0x100000+i*0x1000))))
	}
	r := buildRig(t, cfg, tasks)
	r.run(t, 200)
	st := r.fe.Stats(r.eng.Now())
	if st.OVTStallEvents == 0 {
		t.Fatal("expected OVT-full stalls with 16 version records and 200 live versions")
	}
	if st.OVTMaxLive > 16 {
		t.Fatalf("OVT exceeded capacity: %d live versions", st.OVTMaxLive)
	}
}

func TestDecodeRateMeasured(t *testing.T) {
	var tasks []*taskmodel.Task
	for i := 0; i < 100; i++ {
		tasks = append(tasks, tk(100_000,
			opIn(taskmodel.Addr(0x100000+(i%10)*0x1000)),
			opOut(taskmodel.Addr(0x200000+i*0x1000))))
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 100)
	st := r.fe.Stats(r.eng.Now())
	if st.DecodeRate <= 0 {
		t.Fatal("decode rate not measured")
	}
	if st.DecodeRate > 2000 {
		t.Fatalf("decode rate %f cycles/task implausibly slow", st.DecodeRate)
	}
}

// randomStream builds a reproducible random task stream over a small pool of
// objects with mixed directionality.
func randomStream(rng *rand.Rand, n, objects int) []*taskmodel.Task {
	tasks := make([]*taskmodel.Task, n)
	for i := range tasks {
		nops := 1 + rng.Intn(4)
		if nops > objects {
			nops = objects
		}
		seen := map[taskmodel.Addr]bool{}
		var ops []taskmodel.Operand
		for len(ops) < nops {
			a := taskmodel.Addr(0x100000 + rng.Intn(objects)*0x1000)
			if seen[a] {
				continue
			}
			seen[a] = true
			dir := []taskmodel.Dir{taskmodel.In, taskmodel.Out, taskmodel.InOut}[rng.Intn(3)]
			ops = append(ops, taskmodel.Operand{Base: a, Size: 1024, Dir: dir})
		}
		tasks[i] = tk(uint64(100+rng.Intn(5000)), ops...)
	}
	return tasks
}

// TestScheduleRespectsOracleProperty is the core correctness property: the
// pipeline's observed execution order must satisfy every dependency edge of
// the sequential-semantics oracle graph.
func TestScheduleRespectsOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		tasks := randomStream(rng, n, 1+rng.Intn(12))
		renaming := rng.Intn(2) == 0
		cfg := DefaultConfig()
		cfg.Renaming = renaming
		r := buildRig(t, cfg, tasks)
		r.gen.Start()
		r.eng.Run()
		if len(r.mb.finish) != n {
			t.Logf("seed %d: only %d/%d tasks completed", seed, len(r.mb.finish), n)
			return false
		}
		g := graph.Build(tasks, graph.Options{Renaming: renaming})
		start := make([]uint64, n)
		finish := make([]uint64, n)
		for seq, c := range r.mb.start {
			start[seq] = c
		}
		for seq, c := range r.mb.finish {
			finish[seq] = c
		}
		if err := g.ValidateSchedule(start, finish); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStressSmallConfigProperty drives random streams through a deliberately
// starved frontend (1 TRS, tiny ORT/OVT) to exercise every stall path.
func TestStressSmallConfigProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		tasks := randomStream(rng, n, 24)
		cfg := DefaultConfig()
		cfg.NumTRS = 1
		cfg.NumORT = 1
		cfg.TRSBytesEach = 6 * trsBlockBytes
		cfg.ORTBytesEach = uint64(2 * ortWays * ortEntryBytes)
		cfg.OVTBytesEach = 24 * ovtEntryBytes
		r := buildRig(t, cfg, tasks)
		r.gen.Start()
		r.eng.Run()
		if len(r.mb.finish) != n {
			t.Logf("seed %d: stalled run completed %d/%d", seed, len(r.mb.finish), n)
			return false
		}
		g := graph.Build(tasks, graph.Options{Renaming: true})
		start := make([]uint64, n)
		finish := make([]uint64, n)
		for seq, c := range r.mb.start {
			start[seq] = c
		}
		for seq, c := range r.mb.finish {
			finish[seq] = c
		}
		return g.ValidateSchedule(start, finish) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentationStatistic(t *testing.T) {
	// 3-operand tasks: 104 of 128 allocated bytes used -> ~19% waste.
	var tasks []*taskmodel.Task
	for i := 0; i < 20; i++ {
		tasks = append(tasks, tk(100,
			opIn(taskmodel.Addr(0x100000+i*0x3000)),
			opIn(taskmodel.Addr(0x200000+i*0x3000)),
			opOut(taskmodel.Addr(0x300000+i*0x3000))))
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 20)
	st := r.fe.Stats(r.eng.Now())
	if st.InternalFragmentation < 0.10 || st.InternalFragmentation > 0.30 {
		t.Fatalf("fragmentation = %.2f, expected ~0.2 for 3-operand tasks", st.InternalFragmentation)
	}
}

func TestGeneratorBackpressure(t *testing.T) {
	// More tasks than the 1 KB gateway buffer holds at once: the
	// generator must block and resume.
	var tasks []*taskmodel.Task
	for i := 0; i < 300; i++ {
		tasks = append(tasks, tk(50, opOut(taskmodel.Addr(0x100000+i*0x1000))))
	}
	cfg := DefaultConfig()
	r := buildRig(t, cfg, tasks)
	r.run(t, 300)
	if r.gen.Produced() != 300 {
		t.Fatalf("generator produced %d, want 300", r.gen.Produced())
	}
}

func TestCopyBackOnIdleRenamedVersion(t *testing.T) {
	// Writer (renamed), reader, no further versions: when both retire the
	// renamed buffer must be copied back to the home address.
	tasks := []*taskmodel.Task{
		tk(10, opOut(0x60000)),
		tk(10, opOut(0x60000)), // renamed version
		tk(10, opIn(0x60000)),
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, 3)
	st := r.fe.Stats(r.eng.Now())
	if st.Renames != 1 {
		t.Fatalf("renames = %d, want 1", st.Renames)
	}
	if st.CopyBacks != 1 {
		t.Fatalf("copy-backs = %d, want 1 (idle renamed version)", st.CopyBacks)
	}
}

// An OVT output-buffer grant can overtake the ORT's operand info on the
// ring. The TRS counts the early grant and nets it when the operand info
// lands; a data-ready for a stored operand with nothing pending is still a
// protocol bug and panics.
func TestTRSNetsEarlyOutputGrant(t *testing.T) {
	r := buildRig(t, DefaultConfig(), nil)
	trs := r.fe.trs[0]
	trs.handleAlloc(tk(100, opOut(0x1000)))
	id := TaskID{TRS: 0, Slot: 0}
	op := OperandID{Task: id}
	grant := trsMsg{kind: trsDataReady, op: op, buf: 0x9000, output: true}

	trs.handleDataReady(grant)
	rec := trs.rec(id, 0, false)
	if rec.dispatched {
		t.Fatal("task dispatched before its operand info arrived")
	}
	trs.handleOperandInfo(trsMsg{kind: trsOperandInfo, op: op, dir: taskmodel.Out})
	if !rec.dispatched {
		t.Fatalf("early grant not netted: pending %d, pendingReady %d", rec.op(0).pending, rec.pendingReady)
	}
	if buf := rec.op(0).buf; buf != grant.buf {
		t.Fatalf("output buffer %#x, want the early grant's %#x", buf, grant.buf)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a duplicate data ready for a stored operand did not panic")
		}
	}()
	trs.handleDataReady(grant)
}

func TestTaskIDStrings(t *testing.T) {
	id := TaskID{TRS: 1, Slot: 17}
	if id.String() != "<1,17>" {
		t.Fatalf("TaskID.String() = %q", id.String())
	}
	op := OperandID{Task: id, Index: 0}
	if op.String() != "<1,17,0>" {
		t.Fatalf("OperandID.String() = %q", op.String())
	}
	if !noOperand.isNone() || !noVersion.isNone() {
		t.Fatal("sentinels broken")
	}
	if (VersionID{OVT: 0, Num: 3}).String() == "" {
		t.Fatal("version formatting broken")
	}
}
