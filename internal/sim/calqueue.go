package sim

import "math/bits"

// calQueue is the engine's pending-event set: a hierarchical calendar queue
// tuned for discrete-event simulation, where almost every event lands within
// a few hundred cycles of the clock.
//
// Near-future events live in a ring of per-cycle buckets covering a window
// of calWindow cycles starting at winStart; each bucket is an append-only
// FIFO of bare Events, so same-cycle events keep their schedule order for
// free and a bucket entry needs neither its cycle (the bucket and scan give
// it) nor a sequence number. Events beyond the window go to a plain binary
// min-heap of cells ("far"), each stamped with its cycle and a far-heap
// sequence number, and are migrated into the window whenever the window
// moves.
//
// Invariant: every far cell lies at or beyond winStart+calWindow, so every
// far cell is later than every in-window event. A schedule never lands
// below the clock (ScheduleEventAt clamps), the clock never falls below
// winStart, and rebase, the only code that moves the window, migrates
// every far cell the new window covers. So pop takes the far minimum only
// when the window is empty, and a cycle inside the window has no far cell.
//
// Scheduling and popping are O(1) amortized for in-window events — an
// append and a slice read, with no allocation once the bucket storage is
// warm — and O(log n) for the rare far events.
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

// cell is one far-heap event: 32 bytes, ordered by cycle and then by
// seq, the order in which the far heap received it.
type cell struct {
	at  Cycle
	seq uint64
	ev  Event
}

// cellBefore is the far heap's order: time, then schedule order.
func cellBefore(a, b *cell) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// bucket is the FIFO of one in-window cycle. An entry is the Event alone,
// 16 bytes: closures arrive as FuncEvent (a func value is pointer-shaped,
// so boxing it in the interface does not allocate), typed and pooled
// events as themselves, and firing is a single interface call.
type bucket struct {
	events []Event
	head   int
}

func (q *calQueue) len() int { return q.n }

func (q *calQueue) init() {
	if q.buckets == nil {
		q.buckets = make([]bucket, calWindow)
		seed := make([]Event, int(calWindow)*bucketSeedCap)
		for i := range q.buckets {
			q.buckets[i].events = seed[i*bucketSeedCap : i*bucketSeedCap : (i+1)*bucketSeedCap]
		}
		q.far.h = make([]cell, 0, farSeedCap)
	}
}

// schedule inserts ev at cycle at, which is not below the clock. Events
// beyond the window go to the far heap.
func (q *calQueue) schedule(at Cycle, ev Event) {
	q.init()
	q.n++
	if at-q.winStart < calWindow {
		q.append(at, ev)
		return
	}
	q.far.push(at, ev)
}

// append adds ev to the bucket of in-window cycle at.
func (q *calQueue) append(at Cycle, ev Event) {
	b := &q.buckets[at&calMask]
	if len(b.events) == b.head {
		q.setOcc(uint32(at & calMask))
	}
	b.events = append(b.events, ev)
	q.inWin++
	if at < q.scan {
		q.scan = at
	}
}

// rebase moves the bucket window so that cycle t is covered, then migrates
// far events that now fall inside it, in (at, seq) order. Only called when
// the window is empty, so every migrated event precedes, in its bucket, any
// event scheduled there later.
func (q *calQueue) rebase(t Cycle) {
	q.winStart = t &^ calMask
	q.scan = t
	for len(q.far.h) > 0 && q.far.h[0].at-q.winStart < calWindow {
		c := q.far.pop()
		q.append(c.at, c.ev)
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

// pop removes the earliest pending event in (at, schedule) order and
// returns it with its cycle. The caller must ensure the queue is not empty.
func (q *calQueue) pop() (Cycle, Event) {
	if q.inWin == 0 {
		q.rebase(q.far.h[0].at) // guaranteed to move the far minimum in-window
	}
	b := q.seek()
	ev := b.events[b.head]
	b.events[b.head] = nil // release the event reference
	b.head++
	if b.head == len(b.events) {
		b.events = b.events[:0]
		b.head = 0
		q.clearOcc(uint32(q.scan & calMask))
	}
	q.inWin--
	q.n--
	return q.scan, ev
}

// peekAt returns the timestamp of the earliest pending event without
// removing it.
func (q *calQueue) peekAt() (Cycle, bool) {
	if q.n == 0 {
		return 0, false
	}
	if q.inWin == 0 {
		return q.far.h[0].at, true
	}
	q.seek()
	return q.scan, true
}

// idleAt reports whether no event is pending at cycle t, which must lie in
// the window (no far cell sits there): its bucket is empty.
func (q *calQueue) idleAt(t Cycle) bool {
	b := &q.buckets[t&calMask]
	return b.head == len(b.events)
}

// farHeap is a hand-rolled binary min-heap of cells ordered by (at, seq),
// where seq counts the heap's pushes: far events at one cycle pop in the
// order they were scheduled. container/heap would box every cell into an
// interface; this does not.
type farHeap struct {
	h   []cell
	seq uint64
}

func (f *farHeap) push(at Cycle, ev Event) {
	f.seq++
	f.h = append(f.h, cell{at: at, seq: f.seq, ev: ev})
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
