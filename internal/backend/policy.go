package backend

import (
	"fmt"
	"math/bits"

	"tasksuperscalar/internal/core"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// Built-in dispatch policy names. The policy is part of the machine (it
// changes which worker runs which task and when), so it participates in
// config canonicalization — unlike observers such as the cancellation-poll
// granularity, which only change how the same machine is simulated.
const (
	// PolicyFIFO is the paper's dispatcher: tasks leave the global ready
	// queue in arrival order to the first free worker, round-robin.
	PolicyFIFO = "fifo"
	// PolicyCriticalPath prefers the ready task with the deepest chain of
	// transitive dependents (Config.TaskDepth), HTS-style, using a
	// 64-bucket bitmap scoreboard with a CLZ pick.
	PolicyCriticalPath = "critical-path"
	// PolicyHetero adds kernel-class affinity on top of FIFO: a bounded
	// window of the ready queue is scanned for tasks whose kernel runs
	// faster on a configured worker class with a free slot; everything
	// else falls through to the FIFO path (work-conserving).
	PolicyHetero = "hetero"
	// PolicySpec speculatively dispatches one extra task to a worker whose
	// current task has finished executing but not yet retired (its
	// local-queue credit is provably in flight). Validation is
	// rollback-free: the returning credit repays the speculation debt
	// instead of freeing a slot, so no task ever needs to be re-dispatched.
	PolicySpec = "spec"
)

// PolicyNames lists the built-in policies in a stable order.
func PolicyNames() []string {
	return []string{PolicyFIFO, PolicyCriticalPath, PolicyHetero, PolicySpec}
}

// ValidPolicy reports whether name selects a built-in policy ("" = fifo).
func ValidPolicy(name string) bool {
	switch name {
	case "", PolicyFIFO, PolicyCriticalPath, PolicyHetero, PolicySpec:
		return true
	}
	return false
}

// WorkerClass names a contiguous group of worker cores sharing an execution
// profile. Classes are assigned in declaration order: the first class takes
// the first Count cores, the next class the following Count, and any
// remaining cores form the unnamed baseline (speed 1). Class speeds are a
// machine property — they scale execution time under every policy — while
// only the hetero policy uses them for placement.
type WorkerClass struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Speed is the class's default execution-rate multiplier (0 = 1.0).
	Speed float64 `json:"speed,omitempty"`
	// KernelSpeed optionally overrides Speed per kernel ID (index =
	// taskmodel.KernelID; 0 entries fall back to Speed).
	KernelSpeed []float64 `json:"kernel_speed,omitempty"`
}

// effSpeed is the class's execution-rate multiplier for kernel k.
func (wc *WorkerClass) effSpeed(k taskmodel.KernelID) float64 {
	if int(k) < len(wc.KernelSpeed) {
		if s := wc.KernelSpeed[k]; s > 0 {
			return s
		}
	}
	if wc.Speed > 0 {
		return wc.Speed
	}
	return 1
}

// DispatchRecord is one dispatch decision, as observed by Config.OnDispatch
// and replayed by Config.SpecValidate.
type DispatchRecord struct {
	Seq         uint64 `json:"seq"`
	Worker      int    `json:"worker"`
	Cycle       uint64 `json:"cycle"`
	Speculative bool   `json:"speculative,omitempty"`
}

// DispatchStats summarizes one run's dispatch behaviour.
type DispatchStats struct {
	// Policy is the resolved policy name (never empty).
	Policy string `json:"policy"`
	// Dispatches counts GTU→worker task deliveries (== tasks executed at
	// quiescence; stealing moves tasks after dispatch).
	Dispatches uint64 `json:"dispatches"`
	// AffineDispatches counts hetero-policy placements on a task's best
	// worker class (0 under other policies).
	AffineDispatches uint64 `json:"affine_dispatches,omitempty"`
	// SpecDispatches / SpecValidated count speculative early dispatches
	// and their credit-repayment validations; they are equal once the run
	// quiesces (rollback-free speculation never undoes a dispatch).
	SpecDispatches uint64 `json:"spec_dispatches,omitempty"`
	SpecValidated  uint64 `json:"spec_validated,omitempty"`
	// ReadyPeak is the high-water mark of the global ready set.
	ReadyPeak int `json:"ready_peak"`
	// MaxDepth is the deepest dependent-chain height seen by the
	// critical-path policy (0 otherwise).
	MaxDepth uint32 `json:"max_depth,omitempty"`
	// WorkCycles is the sum of per-task execution cycles as actually
	// scheduled — including worker-class speed scaling — so policies that
	// change placement measurably change it.
	WorkCycles uint64 `json:"work_cycles"`
	// Steals counts local-queue moves (stealing ablation).
	Steals uint64 `json:"steals,omitempty"`
}

// Policy owns the backend's ready set and picks the next (task, worker)
// pair. Implementations run inside the GTU's message handler on the
// engine's single event loop, so they are single-threaded and must be
// deterministic functions of the message order; they must not allocate on
// the steady-state pick path.
type Policy interface {
	// Name returns the policy's registered name.
	Name() string
	// Enqueue accepts a newly ready task into the ready set.
	Enqueue(rt *core.ReadyTask)
	// Ready returns the number of tasks awaiting dispatch.
	Ready() int
	// Admit reports whether worker w could accept a task right now (the
	// admission predicate Pick honors for its worker choice).
	Admit(w int) bool
	// Pick removes and returns the next task and its target worker, with
	// spec set when the pick is a speculative early dispatch (no
	// local-queue credit is consumed). ok is false when no admissible
	// (task, worker) pair exists; the ready set is left unchanged.
	Pick() (rt *core.ReadyTask, w int, spec bool, ok bool)
}

// newPolicy builds the named policy bound to b. The caller (tss.Validate)
// rejects unknown names before a machine is built; reaching here with one
// is a programming error.
func (b *Backend) newPolicy(name string) Policy {
	switch name {
	case "", PolicyFIFO:
		return &fifoPolicy{b: b}
	case PolicyCriticalPath:
		return &cpPolicy{b: b}
	case PolicyHetero:
		return &heteroPolicy{b: b}
	case PolicySpec:
		return &specPolicy{b: b}
	}
	panic(fmt.Sprintf("backend: unknown dispatch policy %q", name))
}

// pickFreeWorkerRR scans for a worker with a free local-queue credit,
// round-robin from the shared cursor, and advances the cursor past the
// returned worker. It returns -1 when every local queue is full. The
// circular scan runs as two plain ranges, [freeRR, n) then [0, freeRR), so
// a failed pick over every worker costs no division.
func (b *Backend) pickFreeWorkerRR() int {
	credits := b.credits
	for idx := b.freeRR; idx < len(credits); idx++ {
		if credits[idx] > 0 {
			return b.takeRR(idx)
		}
	}
	for idx := 0; idx < b.freeRR; idx++ {
		if credits[idx] > 0 {
			return b.takeRR(idx)
		}
	}
	return -1
}

// takeRR advances the round-robin cursor past worker idx and returns it.
func (b *Backend) takeRR(idx int) int {
	if b.freeRR = idx + 1; b.freeRR == len(b.credits) {
		b.freeRR = 0
	}
	return idx
}

// --- fifo ---

// fifoPolicy reproduces the paper's dispatcher exactly: arrival order,
// first free worker round-robin.
type fifoPolicy struct {
	b *Backend
	q sim.FIFO[*core.ReadyTask]
}

func (p *fifoPolicy) Name() string               { return PolicyFIFO }
func (p *fifoPolicy) Enqueue(rt *core.ReadyTask) { p.q.Push(rt) }
func (p *fifoPolicy) Ready() int                 { return p.q.Len() }
func (p *fifoPolicy) Admit(w int) bool           { return p.b.credits[w] > 0 }

func (p *fifoPolicy) Pick() (*core.ReadyTask, int, bool, bool) {
	w := p.b.pickFreeWorkerRR()
	if w < 0 {
		return nil, 0, false, false
	}
	return p.q.Pop(), w, false, true
}

// --- critical-path ---

// cpBuckets is the number of priority levels; chains deeper than the last
// bucket saturate into it (they are all "maximally urgent").
const cpBuckets = 64

// cpPolicy prioritizes the ready task with the deepest dependent chain,
// read from the precomputed Config.TaskDepth table. The ready set is a
// bucket-per-depth scoreboard with an occupancy bitmap: the pick is a CLZ
// over the bitmap plus a FIFO pop, so arrival order breaks ties and the
// pick path is O(1) with zero allocation.
type cpPolicy struct {
	b       *Backend
	buckets [cpBuckets]sim.FIFO[*core.ReadyTask]
	occ     uint64 // bit d set ⇔ buckets[d] non-empty
	n       int
}

func (p *cpPolicy) Name() string     { return PolicyCriticalPath }
func (p *cpPolicy) Ready() int       { return p.n }
func (p *cpPolicy) Admit(w int) bool { return p.b.credits[w] > 0 }

func (p *cpPolicy) Enqueue(rt *core.ReadyTask) {
	var d uint32
	if seq := rt.Task.Seq; seq < uint64(len(p.b.cfg.TaskDepth)) {
		d = p.b.cfg.TaskDepth[seq]
	}
	rt.Depth = d
	if d > p.b.depthMax {
		p.b.depthMax = d
	}
	if d >= cpBuckets {
		d = cpBuckets - 1
	}
	p.buckets[d].Push(rt)
	p.occ |= 1 << d
	p.n++
}

func (p *cpPolicy) Pick() (*core.ReadyTask, int, bool, bool) {
	w := p.b.pickFreeWorkerRR()
	if w < 0 {
		return nil, 0, false, false
	}
	top := 63 - bits.LeadingZeros64(p.occ)
	rt := p.buckets[top].Pop()
	if p.buckets[top].Len() == 0 {
		p.occ &^= 1 << uint(top)
	}
	p.n--
	return rt, w, false, true
}

// --- hetero ---

// heteroScanWindow bounds the affinity scan: only the oldest entries of the
// ready queue are considered for class placement, keeping the pick path
// O(window) and starvation-free (a task never waits behind more than a
// window of younger affine picks before the FIFO pass takes it).
const heteroScanWindow = 64

// heteroPolicy places tasks on the worker class that runs their kernel
// fastest when such a worker is free, and falls back to plain FIFO
// otherwise — it never idles a worker to wait for affinity (work-
// conserving), so it conserves tasks trivially and only reorders.
type heteroPolicy struct {
	b       *Backend
	q       sim.FIFO[*core.ReadyTask]
	best    []int8 // kernel ID → fastest class, -1 when baseline ties or wins
	classRR []int  // per-class round-robin cursor
}

func (p *heteroPolicy) Name() string               { return PolicyHetero }
func (p *heteroPolicy) Enqueue(rt *core.ReadyTask) { p.q.Push(rt) }
func (p *heteroPolicy) Ready() int                 { return p.q.Len() }
func (p *heteroPolicy) Admit(w int) bool           { return p.b.credits[w] > 0 }

// bestClass resolves (and caches) the fastest class for kernel k. The cache
// grows once per newly seen kernel ID; the steady-state path is a slice
// index.
func (p *heteroPolicy) bestClass(k taskmodel.KernelID) int8 {
	for int(k) >= len(p.best) {
		kid := taskmodel.KernelID(len(p.best))
		best, bestSp := int8(-1), 1.0 // baseline speed is 1
		for ci := range p.b.cfg.WorkerClasses {
			if sp := p.b.cfg.WorkerClasses[ci].effSpeed(kid); sp > bestSp {
				best, bestSp = int8(ci), sp
			}
		}
		p.best = append(p.best, best)
	}
	return p.best[k]
}

// pickClassWorker finds a free worker in class c, round-robin within the
// class's members.
func (p *heteroPolicy) pickClassWorker(c int) int {
	if p.classRR == nil {
		p.classRR = make([]int, len(p.b.cfg.WorkerClasses))
	}
	mem := p.b.classMembers[c]
	n := len(mem)
	for i := 0; i < n; i++ {
		j := (p.classRR[c] + i) % n
		w := int(mem[j])
		if p.b.credits[w] > 0 {
			p.classRR[c] = (j + 1) % n
			return w
		}
	}
	return -1
}

func (p *heteroPolicy) Pick() (*core.ReadyTask, int, bool, bool) {
	// Pass 1: affinity — oldest-first over a bounded window, so older
	// tasks still get first claim on their preferred class.
	lim := p.q.Len()
	if lim > heteroScanWindow {
		lim = heteroScanWindow
	}
	for i := 0; i < lim; i++ {
		rt := *p.q.At(i)
		c := p.bestClass(rt.Task.Kernel)
		if c < 0 {
			continue
		}
		if w := p.pickClassWorker(int(c)); w >= 0 {
			p.q.RemoveAt(i)
			p.b.affineDispatches++
			return rt, w, false, true
		}
	}
	// Pass 2: work-conserving FIFO fallback.
	w := p.b.pickFreeWorkerRR()
	if w < 0 {
		return nil, 0, false, false
	}
	return p.q.Pop(), w, false, true
}

// --- spec ---

// specPolicy dispatches FIFO while credits last, then speculates: a worker
// whose current task has finished executing (hint received) but not yet
// retired has a local-queue credit provably in flight, so one extra task
// may be shipped against it early. Validation is rollback-free — the
// returning credit repays the debt instead of freeing a slot (see
// handleGTU) — so a speculative dispatch is never undone, only accounted.
// At most one speculation per worker is outstanding.
type specPolicy struct {
	b      *Backend
	q      sim.FIFO[*core.ReadyTask]
	specRR int
}

func (p *specPolicy) Name() string               { return PolicySpec }
func (p *specPolicy) Enqueue(rt *core.ReadyTask) { p.q.Push(rt) }
func (p *specPolicy) Ready() int                 { return p.q.Len() }

func (p *specPolicy) Admit(w int) bool {
	return p.b.credits[w] > 0 || (p.b.specHint[w] && p.b.specDebt[w] == 0)
}

func (p *specPolicy) Pick() (*core.ReadyTask, int, bool, bool) {
	b := p.b
	if w := b.pickFreeWorkerRR(); w >= 0 {
		return p.q.Pop(), w, false, true
	}
	n := len(b.workers)
	for i := 0; i < n; i++ {
		idx := (p.specRR + i) % n
		if b.specHint[idx] && b.specDebt[idx] == 0 {
			p.specRR = (idx + 1) % n
			b.specHint[idx] = false
			b.specDebt[idx] = 1
			b.specDispatched++
			return p.q.Pop(), idx, true, true
		}
	}
	return nil, 0, false, false
}
