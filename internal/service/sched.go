package service

import (
	"slices"
	"sync"
)

// Weighted fair-share scheduling: the queue between accepted submissions and
// the daemon's one intake, Server.pump, on a plain daemon and a dispatcher
// alike.
//
// The old intake was a single FIFO channel — one heavy tenant could bury
// everyone else's jobs arbitrarily deep. The scheduler replaces it with
// per-tenant, per-priority-class queues drained by start-time fair queueing:
//
//   - Each tenant carries a virtual-time tag. Picking always takes the
//     backlogged tenant with the smallest tag (ties: tenant creation order),
//     then advances that tenant's tag by 1/weight. Under saturation this
//     converges to worker shares proportional to the configured weights; a
//     tenant returning from idle has its tag floored to the global virtual
//     clock, so idling banks no credit.
//   - Within a tenant, the interactive class preempts the bulk class:
//     queued interactive jobs (point queries) are picked before queued bulk
//     jobs (sweep shards). Starvation is bounded: after bulkPromoteEvery
//     consecutive interactive picks while bulk work waits, the next pick
//     from that tenant is bulk.
//
// Every decision is a pure function of (arrival sequence, tenant, priority):
// no timers, no randomness — so a given submission interleaving always
// yields the same dispatch order, and the byte-identity and conservation
// guarantees of the execution layer are untouched (the scheduler only
// reorders *which* job runs next).

// Priority classes. PriorityInteractive is the default for sim jobs (a
// human waiting on one point), PriorityBulk for sweep jobs (a batch of
// shards nobody is staring at). JobSpec.Priority overrides the default and
// is scheduling metadata only — it is excluded from the job key, so the same
// spec at either priority addresses the same cached result.
const (
	PriorityInteractive = "interactive"
	PriorityBulk        = "bulk"
)

const (
	classInteractive = iota
	classBulk
	numClasses
)

// classOf maps a normalized priority to its class index.
func classOf(priority string) int {
	if priority == PriorityBulk {
		return classBulk
	}
	return classInteractive
}

// bulkPromoteEvery bounds bulk-class starvation within a tenant: after this
// many consecutive interactive picks while the tenant's bulk queue is
// nonempty, the next pick is bulk. A queued bulk job therefore waits at most
// bulkPromoteEvery interactive dispatches of its tenant per queue position.
const bulkPromoteEvery = 8

// tenantQueue is one tenant's scheduler state.
type tenantQueue struct {
	name   string
	weight float64
	index  int     // creation order: the deterministic tie-break
	tag    float64 // virtual-time tag (next pick's start time)
	intRun int     // consecutive interactive picks while bulk waited

	q          [numClasses][]*job
	dispatched uint64
}

func (tq *tenantQueue) queued() int {
	return len(tq.q[classInteractive]) + len(tq.q[classBulk])
}

// scheduler is the shared queue. enqueue never blocks (capacity rejection
// is the caller's 503); next blocks until a job is available, and returns
// nil once the scheduler is closed and drained — the pump's shutdown
// signal, mirroring the closed-channel semantics it replaces.
type scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	depth  int

	queued     int
	seq        uint64  // arrival sequence
	vclock     float64 // tag of the most recently dispatched job
	queues     []*tenantQueue
	byName     map[string]*tenantQueue
	dispatched uint64
}

func newScheduler(depth int) *scheduler {
	sc := &scheduler{depth: depth, byName: make(map[string]*tenantQueue)}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// enqueue admits one job, assigning its arrival sequence. It reports false —
// and records nothing — when the scheduler is closed or at depth.
func (sc *scheduler) enqueue(j *job) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed || sc.queued >= sc.depth {
		return false
	}
	tq := sc.byName[j.tenant.name]
	if tq == nil {
		tq = &tenantQueue{
			name:   j.tenant.name,
			weight: float64(j.tenant.weight),
			index:  len(sc.queues),
		}
		sc.queues = append(sc.queues, tq)
		sc.byName[tq.name] = tq
	}
	if tq.queued() == 0 {
		// Idle → backlogged: floor the tag to the virtual clock so the
		// tenant competes from now, not from banked idle time.
		if tq.tag < sc.vclock {
			tq.tag = sc.vclock
		}
	}
	sc.seq++
	j.seq = sc.seq
	tq.q[j.class] = append(tq.q[j.class], j)
	sc.queued++
	sc.cond.Signal()
	return true
}

// full reports whether enqueue would refuse a job.
func (sc *scheduler) full() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.closed || sc.queued >= sc.depth
}

// next blocks until a job is available and returns the fair-share pick, or
// nil when the scheduler is closed and fully drained.
func (sc *scheduler) next() *job {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for sc.queued == 0 && !sc.closed {
		sc.cond.Wait()
	}
	if sc.queued == 0 {
		return nil
	}
	return sc.pickLocked()
}

// pickLocked implements the scheduling decision; caller holds sc.mu and has
// checked queued > 0.
func (sc *scheduler) pickLocked() *job {
	var best *tenantQueue
	for _, tq := range sc.queues {
		if tq.queued() == 0 {
			continue
		}
		if best == nil || tq.tag < best.tag {
			best = tq
		}
	}

	// Class within the tenant: interactive preempts bulk, bounded by the
	// promotion counter so bulk is never starved.
	cls := classInteractive
	switch {
	case len(best.q[classInteractive]) == 0:
		cls = classBulk
	case len(best.q[classBulk]) > 0 && best.intRun >= bulkPromoteEvery:
		cls = classBulk
	}
	if cls == classBulk {
		best.intRun = 0
	} else if len(best.q[classBulk]) > 0 {
		best.intRun++
	} else {
		best.intRun = 0
	}

	j := best.q[cls][0]
	best.q[cls][0] = nil // free the slot for GC
	best.q[cls] = best.q[cls][1:]
	sc.queued--
	best.dispatched++
	sc.dispatched++

	// Advance virtual time: the clock moves to this pick's start tag, and
	// the tenant's next start is one weighted quantum later.
	sc.vclock = best.tag
	best.tag += 1 / best.weight
	return j
}

// remove drops a job cancelled while queued from its tenant queue, so it no
// longer counts against the depth or in the queue stats. A job a pick already
// popped is in no queue, and remove leaves everything as it is.
func (sc *scheduler) remove(j *job) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	tq := sc.byName[j.tenant.name] // enqueue created it
	if i := slices.Index(tq.q[j.class], j); i >= 0 {
		tq.q[j.class] = slices.Delete(tq.q[j.class], i, i+1)
		sc.queued--
	}
}

// close wakes every waiter; the pump drains the remaining queue (next keeps
// returning queued jobs) and then exits on nil.
func (sc *scheduler) close() {
	sc.mu.Lock()
	sc.closed = true
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// abort closes the scheduler AND drops the queue on the floor — crash
// semantics (Server.Kill), where close is shutdown semantics. The pump exits
// on its next pick; the dropped jobs live on in the journal, which is
// exactly where a restart recovers them from.
func (sc *scheduler) abort() {
	sc.mu.Lock()
	sc.closed = true
	for _, tq := range sc.queues {
		for cls := range tq.q {
			for i := range tq.q[cls] {
				tq.q[cls][i] = nil
			}
			tq.q[cls] = nil
		}
	}
	sc.queued = 0
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// SchedStats is the scheduler section of GET /stats: queue depth overall and
// by priority class, plus total dispatches.
type SchedStats struct {
	Queued            int    `json:"queued"`
	QueuedInteractive int    `json:"queued_interactive"`
	QueuedBulk        int    `json:"queued_bulk"`
	Dispatched        uint64 `json:"dispatched"`
}

// stats snapshots the scheduler counters and per-tenant queue depths,
// merging the latter into byTenant (keyed by tenant name).
func (sc *scheduler) stats(byTenant map[string]*TenantStats) SchedStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	st := SchedStats{Queued: sc.queued, Dispatched: sc.dispatched}
	for _, tq := range sc.queues {
		st.QueuedInteractive += len(tq.q[classInteractive])
		st.QueuedBulk += len(tq.q[classBulk])
		if ts := byTenant[tq.name]; ts != nil {
			ts.QueuedInteractive = len(tq.q[classInteractive])
			ts.QueuedBulk = len(tq.q[classBulk])
			ts.Dispatched = tq.dispatched
		}
	}
	return st
}
