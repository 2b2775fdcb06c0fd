package sim

import "math/bits"

// calQueue is the engine's pending-event set: a hierarchical calendar queue
// tuned for discrete-event simulation, where almost every event lands within
// a few hundred cycles of the clock.
//
// Near-future events live in a ring of per-cycle FIFOs covering a window of
// calWindow cycles starting at winStart. Each FIFO is a singly linked list
// of nodes, and the ring holds only its head and tail node indexes, 8 bytes
// per cycle. A node is the bare Event plus the index of the next node, 24
// bytes; same-cycle events keep their schedule order for free, and a node
// needs neither its cycle (the list and scan give it) nor a sequence
// number. All nodes share one array that grows with the peak number of
// pending in-window events, and freed nodes are reused last in first out,
// so an engine's storage follows what its run holds. Events beyond the
// window go to a plain binary min-heap of cells ("far"), each stamped with
// its cycle and a far-heap sequence number, and are migrated into the
// window whenever the window moves.
//
// Invariant: every far cell lies at or beyond winStart+calWindow, so every
// far cell is later than every in-window event. A schedule never lands
// below the clock (ScheduleEventAt clamps), the clock never falls below
// winStart, and rebase, the only code that moves the window, migrates
// every far cell the new window covers. So pop takes the far minimum only
// when the window is empty, and a cycle inside the window has no far cell.
//
// Scheduling and popping are O(1) amortized for in-window events — a node
// link and unlink, with no allocation once the node array has reached the
// run's peak — and O(log n) for the rare far events.
type calQueue struct {
	cycles   [calWindow]fifo // cycles[i] holds the events at cycles c with c&calMask == i
	nodes    []node          // nodes[0] is unused: index 0 means none
	free     uint32          // first free node, the rest linked through next
	winStart Cycle           // first cycle covered by the window (calMask-aligned)
	scan     Cycle           // no in-window events exist at cycles < scan
	inWin    int             // events currently held in the window
	far      farHeap         // events outside [winStart, winStart+calWindow)
	n        int             // total pending events

	// occ mirrors FIFO occupancy, one bit per cycle of the window, so seek
	// jumps to the next non-empty FIFO with a word scan instead of walking
	// empty cycles one at a time. Invariant: bit i is set iff cycles[i]
	// holds at least one event.
	occ [calWindow / 64]uint64
}

func (q *calQueue) setOcc(i uint32)   { q.occ[i>>6] |= 1 << (i & 63) }
func (q *calQueue) clearOcc(i uint32) { q.occ[i>>6] &^= 1 << (i & 63) }

const (
	calWindowBits = 12
	calWindow     = Cycle(1) << calWindowBits
	calMask       = calWindow - 1

	// nodeSeedCap is the node array's first capacity, 3 KiB: an array that
	// grew from one node would reallocate at every doubling on the way to
	// the hundred-odd in-window events a paper run holds at its peak.
	nodeSeedCap = 128

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

// fifo is the event list of one in-window cycle: the indexes of its first
// and last nodes, both 0 when it is empty.
type fifo struct{ head, tail uint32 }

// node is one in-window event. ev is the Event alone: closures arrive as
// FuncEvent (a func value is pointer-shaped, so boxing it in the interface
// does not allocate), typed and pooled events as themselves, and firing is
// a single interface call. next links the cycle's FIFO, or the free list.
type node struct {
	ev   Event
	next uint32
}

func (q *calQueue) len() int { return q.n }

func (q *calQueue) init() {
	if q.nodes == nil {
		q.nodes = make([]node, 1, nodeSeedCap)
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

// append adds ev to the FIFO of in-window cycle at.
func (q *calQueue) append(at Cycle, ev Event) {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = node{ev: ev}
	} else {
		i = uint32(len(q.nodes))
		q.nodes = append(q.nodes, node{ev: ev})
	}
	f := &q.cycles[at&calMask]
	if f.head == 0 {
		f.head = i
		q.setOcc(uint32(at & calMask))
	} else {
		q.nodes[f.tail].next = i
	}
	f.tail = i
	q.inWin++
	if at < q.scan {
		q.scan = at
	}
}

// rebase moves the window so that cycle t is covered, then migrates far
// events that now fall inside it, in (at, seq) order. Only called when the
// window is empty, so every migrated event precedes, in its FIFO, any event
// scheduled there later.
func (q *calQueue) rebase(t Cycle) {
	q.winStart = t &^ calMask
	q.scan = t
	for len(q.far.h) > 0 && q.far.h[0].at-q.winStart < calWindow {
		c := q.far.pop()
		q.append(c.at, c.ev)
	}
}

// seek advances scan to the next non-empty FIFO and returns it. The caller
// must ensure inWin > 0. The occupancy bitmap turns the walk over empty
// cycles into a word scan: find the next set bit at or after scan's cycle,
// circularly (order from scan is cycle order within the window, so the
// first occupied FIFO holds the earliest pending cycle).
func (q *calQueue) seek() *fifo {
	// Fast path: the FIFO at scan is still non-empty (same-cycle event
	// bursts are the common case — module costs cluster messages).
	if f := &q.cycles[q.scan&calMask]; f.head != 0 {
		return f
	}
	start := uint32(q.scan & calMask)
	w := start >> 6
	if word := q.occ[w] & (^uint64(0) << (start & 63)); word != 0 {
		i := w<<6 + uint32(bits.TrailingZeros64(word))
		q.scan += Cycle(i-start) & calMask
		return &q.cycles[i]
	}
	for k := 1; k <= len(q.occ); k++ {
		w2 := (w + uint32(k)) % uint32(len(q.occ))
		if word := q.occ[w2]; word != 0 {
			i := w2<<6 + uint32(bits.TrailingZeros64(word))
			q.scan += Cycle(i-start) & calMask
			return &q.cycles[i]
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
	f := q.seek()
	i := f.head
	nd := &q.nodes[i]
	ev := nd.ev
	nd.ev = nil // release the event reference
	f.head = nd.next
	nd.next = q.free
	q.free = i
	if f.head == 0 {
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
// the window (no far cell sits there): its FIFO is empty.
func (q *calQueue) idleAt(t Cycle) bool { return q.cycles[t&calMask].head == 0 }

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
