package sim

import "math/bits"

// calQueue is the engine's pending-event set: a hierarchical calendar queue
// tuned for discrete-event simulation, where almost every event lands within
// a few hundred cycles of the clock.
//
// Near-future events live in a ring of per-cycle buckets covering a window
// of calWindow cycles starting at winStart; each bucket is an append-only
// FIFO, so same-cycle events keep their schedule (seq) order for free.
// Events beyond the window go to a plain binary min-heap of cells ("far"),
// which is migrated into the window whenever the window advances. The far
// heap is also the fallback for events scheduled below the window (possible
// after a peek jumped the window forward and the clock was then rewound by
// RunUntil): pop compares the far minimum against the window head, so the
// global (at, seq) order holds unconditionally.
//
// Scheduling and popping are O(1) amortized for in-window events — an
// append and a slice read, with no interface boxing and no allocation once
// the bucket storage is warm — and O(log n) for the rare far events.
type calQueue struct {
	buckets  []bucket // len calWindow; bucket i holds cycles c with c&calMask == i
	winStart Cycle    // first cycle covered by the bucket window (calMask-aligned)
	scan     Cycle    // no in-window events exist at cycles < scan
	inWin    int      // events currently held in buckets
	far      farHeap  // events outside [winStart, winStart+calWindow)
	n        int      // total pending events

	// occ mirrors bucket occupancy, one bit per bucket, so seek jumps to
	// the next non-empty bucket with a word scan instead of walking empty
	// cycles one at a time. Invariant: bit i is set iff buckets[i] holds
	// at least one event.
	occ [calWindow / 64]uint64
}

func (q *calQueue) setOcc(i uint32)   { q.occ[i>>6] |= 1 << (i & 63) }
func (q *calQueue) clearOcc(i uint32) { q.occ[i>>6] &^= 1 << (i & 63) }

const (
	calWindowBits = 12
	calWindow     = Cycle(1) << calWindowBits
	calMask       = calWindow - 1

	// bucketSeedCap is the initial per-bucket capacity, carved from one
	// contiguous backing array at init. Growing 4096 buckets from nil one
	// append at a time costs thousands of small allocations per engine;
	// seeding them from a single slab removes that warm-up tax (buckets
	// that outgrow the seed reallocate individually and stay warm).
	bucketSeedCap = 8

	// farSeedCap pre-sizes the far heap so the first few hundred
	// long-horizon events (task runtimes, DRAM transfers) grow it once.
	farSeedCap = 256
)

// cell is one scheduled event: 32 bytes, one representation. Closures
// arrive as FuncEvent (a func value is pointer-shaped, so boxing it in the
// interface does not allocate), typed and pooled events as themselves, and
// firing is a single interface call with no branch on the kind.
type cell struct {
	at  Cycle
	seq uint64
	ev  Event
}

// cellBefore is the engine's total event order: time, then schedule order.
func cellBefore(a, b *cell) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type bucket struct {
	events []cell
	head   int
}

func (q *calQueue) len() int { return q.n }

func (q *calQueue) init() {
	if q.buckets == nil {
		q.buckets = make([]bucket, calWindow)
		seed := make([]cell, int(calWindow)*bucketSeedCap)
		for i := range q.buckets {
			q.buckets[i].events = seed[i*bucketSeedCap : i*bucketSeedCap : (i+1)*bucketSeedCap]
		}
		q.far.h = make([]cell, 0, farSeedCap)
	}
}

// schedule inserts a cell. Cells with at below the window (only possible
// after the clock was rewound below winStart) go to the far heap, where pop
// finds them via the head comparison.
func (q *calQueue) schedule(c cell) {
	q.init()
	q.n++
	if c.at-q.winStart < calWindow { // unsigned: below-window wraps huge
		b := &q.buckets[c.at&calMask]
		if len(b.events) == b.head {
			q.setOcc(uint32(c.at & calMask))
		}
		b.events = append(b.events, c)
		q.inWin++
		if c.at < q.scan {
			q.scan = c.at
		}
		return
	}
	q.far.push(c)
}

// rebase moves the bucket window so that cycle t is covered, then migrates
// far events that now fall inside it. Only called when the window is empty.
func (q *calQueue) rebase(t Cycle) {
	q.winStart = t &^ calMask
	q.scan = t
	for len(q.far.h) > 0 && q.far.h[0].at-q.winStart < calWindow {
		c := q.far.pop()
		b := &q.buckets[c.at&calMask]
		if len(b.events) == b.head {
			q.setOcc(uint32(c.at & calMask))
		}
		b.events = append(b.events, c)
		q.inWin++
		if c.at < q.scan {
			q.scan = c.at
		}
	}
}

// seek advances scan to the next non-empty bucket and returns it. The
// caller must ensure inWin > 0. The occupancy bitmap turns the walk over
// empty cycles into a word scan: find the next set bit at or after scan's
// bucket, circularly (bucket order from scan is cycle order within the
// window, so the first occupied bucket is the earliest pending cycle).
func (q *calQueue) seek() *bucket {
	// Fast path: the bucket at scan is still non-empty (same-cycle event
	// bursts are the common case — module costs cluster messages).
	if b := &q.buckets[q.scan&calMask]; b.head < len(b.events) {
		return b
	}
	start := uint32(q.scan & calMask)
	w := start >> 6
	if word := q.occ[w] & (^uint64(0) << (start & 63)); word != 0 {
		i := w<<6 + uint32(bits.TrailingZeros64(word))
		q.scan += Cycle(i-start) & calMask
		return &q.buckets[i]
	}
	for k := 1; k <= len(q.occ); k++ {
		w2 := (w + uint32(k)) % uint32(len(q.occ))
		if word := q.occ[w2]; word != 0 {
			i := w2<<6 + uint32(bits.TrailingZeros64(word))
			q.scan += Cycle(i-start) & calMask
			return &q.buckets[i]
		}
	}
	panic("sim: calendar queue window accounting corrupted")
}

// pop removes and returns the earliest cell in (at, seq) order.
func (q *calQueue) pop() (cell, bool) {
	if q.n == 0 {
		return cell{}, false
	}
	q.init()
	if q.inWin == 0 {
		q.rebase(q.far.h[0].at) // guaranteed to move the far minimum in-window
	}
	b := q.seek()
	c := &b.events[b.head]
	// The far heap may hold an earlier event only when it has entries below
	// the window; one comparison keeps the order exact in that rare case.
	if len(q.far.h) > 0 && cellBefore(&q.far.h[0], c) {
		q.n--
		return q.far.pop(), true
	}
	out := *c
	*c = cell{} // release the event reference
	b.head++
	if b.head == len(b.events) {
		b.events = b.events[:0]
		b.head = 0
		q.clearOcc(uint32(q.scan & calMask))
	}
	q.inWin--
	q.n--
	return out, true
}

// peekAt returns the timestamp of the earliest pending cell without
// removing it.
func (q *calQueue) peekAt() (Cycle, bool) {
	if q.n == 0 {
		return 0, false
	}
	q.init()
	if q.inWin == 0 {
		return q.far.h[0].at, true
	}
	b := q.seek()
	at := b.events[b.head].at
	if len(q.far.h) > 0 && q.far.h[0].at < at {
		at = q.far.h[0].at
	}
	return at, true
}

// farHeap is a hand-rolled binary min-heap of cells ordered by (at, seq).
// container/heap would box every cell into an interface; this does not.
type farHeap struct {
	h []cell
}

func (f *farHeap) push(c cell) {
	f.h = append(f.h, c)
	i := len(f.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !cellBefore(&f.h[i], &f.h[parent]) {
			break
		}
		f.h[i], f.h[parent] = f.h[parent], f.h[i]
		i = parent
	}
}

func (f *farHeap) pop() cell {
	top := f.h[0]
	last := len(f.h) - 1
	f.h[0] = f.h[last]
	f.h[last] = cell{} // release references
	f.h = f.h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && cellBefore(&f.h[l], &f.h[small]) {
			small = l
		}
		if r < last && cellBefore(&f.h[r], &f.h[small]) {
			small = r
		}
		if small == i {
			break
		}
		f.h[i], f.h[small] = f.h[small], f.h[i]
		i = small
	}
	return top
}
