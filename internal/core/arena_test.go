package core

import (
	"testing"

	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// TestVersionIDWraparound drives the version-number allocator across the
// uint32 wrap boundary. The OVT's sim.Table is keyed by the raw version
// number (including 0, which the allocator produces right after the wrap),
// so creation, lookup, and release must all survive the rollover.
func TestVersionIDWraparound(t *testing.T) {
	var tasks []*taskmodel.Task
	for i := 0; i < 120; i++ {
		a := taskmodel.Addr(0x100000 + (i%10)*0x1000)
		switch i % 3 {
		case 0:
			tasks = append(tasks, tk(500, opOut(a)))
		case 1:
			tasks = append(tasks, tk(500, opIn(a)))
		case 2:
			tasks = append(tasks, tk(500, opInOut(a)))
		}
	}
	r := buildRig(t, DefaultConfig(), tasks)
	// Park every allocator a few versions short of the wrap; the workload
	// allocates far more versions than that, so numbers 2^32-1, 0, 1, …
	// are all exercised while earlier records are still live.
	for _, o := range r.fe.ort {
		o.verSeq = ^uint32(0) - 5
	}
	r.run(t, 120)
	r.eng.Run() // let release handshakes finish
	for i, ovt := range r.fe.ovt {
		if n := ovt.live(); n != 0 {
			t.Errorf("ovt%d still holds %d live versions after wraparound drain", i, n)
		}
		if ovt.pendingCount() != 0 || ovt.stashed.Len() != 0 {
			t.Errorf("ovt%d has pending/stashed state after wraparound drain", i)
		}
	}
	for i, o := range r.fe.ort {
		if o.verSeq >= ^uint32(0)-5 && o.lookups > 6 {
			t.Errorf("ort%d allocator did not wrap (verSeq=%d after %d lookups)",
				i, o.verSeq, o.lookups)
		}
	}
}

// TestRenameBufferBucketRecycling checks the per-log2-size free stacks: a
// long serial chain of renamed outputs of one size must recycle buffers
// from the stack rather than carving fresh ones from the OS-assigned
// region. One 16-buffer refill is the most a serial chain may consume.
func TestRenameBufferBucketRecycling(t *testing.T) {
	const n = 40
	var tasks []*taskmodel.Task
	for i := 0; i < n; i++ {
		// Repeated pure writers of one object: every version after the
		// first is renamed into a 4 KB rename buffer, then freed when
		// the version dies or is copied back.
		tasks = append(tasks, tk(300, opOut(0x200000)))
	}
	r := buildRig(t, DefaultConfig(), tasks)
	r.run(t, n)
	r.eng.Run()
	for i, ovt := range r.fe.ovt {
		if ovt.renames == 0 {
			continue // the object hashed to the other ORT/OVT pair
		}
		if ovt.renameBufOut != 0 {
			t.Errorf("ovt%d leaked %d rename buffers", i, ovt.renameBufOut)
		}
		carved := ovt.nextBuf - ((uint64(1) << 44) + uint64(i)<<40)
		if max := uint64(16 * 4096); carved > max {
			t.Errorf("ovt%d carved %d bytes of rename buffers for %d serial renames; "+
				"want at most one 16-buffer refill (%d) — free stacks not recycling",
				i, carved, ovt.renames, max)
		}
		// The freed buffers must be back on the 4 KB stack for reuse.
		if free := len(ovt.buckets[bucketFor(4096)]); free == 0 {
			t.Errorf("ovt%d has no free 4 KB buffers after drain", i)
		}
	}
}

// releasingBackend completes each ready task after its runtime and returns
// the dispatch record to the frontend pool, like the real backend. It
// handles one task in flight at a time (the zero-alloc test injects tasks
// one by one), so its completion closure is prebuilt.
type releasingBackend struct {
	eng     *sim.Engine
	fe      *Frontend
	node    noc.NodeID
	pending *ReadyTask
	fireFn  func()
	done    uint64
}

func (rb *releasingBackend) Node() noc.NodeID { return rb.node }

func (rb *releasingBackend) TaskReady(rt *ReadyTask) {
	if rb.pending != nil {
		panic("releasingBackend: overlapping tasks")
	}
	rb.pending = rt
	rb.eng.Schedule(sim.Cycle(rt.Task.Runtime), rb.fireFn)
}

func (rb *releasingBackend) fire() {
	rt := rb.pending
	rb.pending = nil
	rb.done++
	rb.fe.TaskFinished(rb.node, rt.ID)
	rt.Release()
}

// TestDecodeSteadyStateZeroAlloc pins the tentpole invariant: once every
// arena, table, free stack, and pool is warm, decoding and retiring tasks
// allocates nothing — the whole per-task path (gateway, ORT lookup, OVT
// versioning, TRS storage, dispatch, finish walk) runs in preallocated
// storage. This extends the engine-level AllocsPerRun assertions in
// internal/sim/engine_test.go to the full pipeline.
func TestDecodeSteadyStateZeroAlloc(t *testing.T) {
	cfg := DefaultConfig() // chain lengths are recorded, into a warm histogram

	eng := sim.NewEngine()
	net := noc.NewNetwork(eng, noc.DefaultConfig())
	fe := New(eng, net, cfg, NewNullCopyEngine(eng))
	rb := &releasingBackend{eng: eng, fe: fe, node: net.AddGlobalNode("rb")}
	rb.fireFn = rb.fire
	fe.SetDispatcher(rb)
	net.Build()

	// A fixed task set reused round-robin: writers, readers, and in-place
	// chains over a handful of objects, exercising renaming, consumer
	// chaining, retired-producer queries, and scalar delivery.
	var tasks []*taskmodel.Task
	for i := 0; i < 12; i++ {
		a := taskmodel.Addr(0x300000 + (i%4)*0x1000)
		var task *taskmodel.Task
		switch i % 3 {
		case 0:
			task = tk(150, opOut(a), opScalar())
		case 1:
			task = tk(150, opIn(a))
		case 2:
			task = tk(150, opInOut(a))
		}
		task.Seq = uint64(i)
		tasks = append(tasks, task)
	}
	next := 0
	inject := func() {
		task := tasks[next]
		next = (next + 1) % len(tasks)
		fe.gw.Reserve(task)
		fe.gw.Enqueue(task)
		eng.Run()
	}

	// Warm every structure: slabs, free stacks, message pools, queues,
	// calendar buckets, rename-buffer stacks.
	for i := 0; i < 3*len(tasks); i++ {
		inject()
	}
	if avg := testing.AllocsPerRun(200, inject); avg != 0 {
		t.Fatalf("steady-state decode allocated %.2f times per task, want 0", avg)
	}
	if rb.pending != nil {
		t.Fatal("task left in flight")
	}
}
