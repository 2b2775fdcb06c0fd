// Package noc models the paper's interconnect (Table II): a segmented
// two-level ring. Each group of 8 cores sits on a local processor ring, and a
// global ring connects the processor rings, the L2 banks, the memory
// controllers, and the task superscalar frontend modules. Links move 16
// bytes/cycle and each segment admits 4 concurrent connections.
//
// Transfers are modeled wormhole-style: the head flit takes one cycle per
// hop, the message occupies each traversed segment for its serialization
// time (bytes / link width), and per-segment occupancy is limited to the
// configured number of concurrent connections.
package noc

import (
	"fmt"

	"tasksuperscalar/internal/sim"
)

// Config are the physical ring parameters.
type Config struct {
	HopCycles  sim.Cycle // head latency per hop
	LinkBytes  uint32    // bytes per cycle per link
	SegConns   int       // concurrent connections per segment
	RouterOver sim.Cycle // fixed per-transfer overhead (injection/ejection)
}

// DefaultConfig returns the Table II interconnect parameters.
func DefaultConfig() Config {
	return Config{HopCycles: 1, LinkBytes: 16, SegConns: 4, RouterOver: 2}
}

// Ring is a bidirectional ring with a fixed number of stops. Messages take
// the shortest direction. The zero value is not usable; use NewRing.
type Ring struct {
	eng   *sim.Engine
	name  string
	stops int
	cfg   Config
	// segBusy holds, for every (direction, segment, connection) triple,
	// the cycle at which that connection slot frees, flattened into one
	// contiguous array: slot c of segment s in direction d lives at
	// ((d*stops)+s)*SegConns + c. Every transfer walks this, so locality
	// matters. dir 0 = clockwise, 1 = ccw.
	segBusy []sim.Cycle

	// lastArrival enforces point-to-point FIFO delivery per (from,to)
	// pair: hardware rings deliver same-route messages in order (ordered
	// virtual channels), and the frontend protocol depends on it. Routes
	// are dense small integers (from*stops+to), so this is a flat table
	// rather than a map — it sits on the per-message hot path.
	lastArrival []sim.Cycle

	// cursor holds, per (direction, segment), the connection slot the
	// idle-route pass tries next: the one after the slot it booked last.
	// Indexed like segBusy without the connection: d*stops + s.
	cursor []int

	// slotScratch/prevScratch record, per hop of reserveScan, the flat
	// segBusy index booked and the value it overwrote (for rollback on a
	// contention restart); reused across transfers.
	slotScratch []int
	prevScratch []sim.Cycle

	// linkShift is log2(LinkBytes) when the link width is a power of two
	// (the common case), letting serCycles shift instead of divide; -1
	// otherwise.
	linkShift int

	// Stats.
	transfers uint64
	bytes     uint64
	waitTotal sim.Cycle
}

// NewRing creates a ring with the given number of stops.
func NewRing(eng *sim.Engine, name string, stops int, cfg Config) *Ring {
	if stops < 1 {
		panic(fmt.Sprintf("noc: ring %q needs at least 1 stop", name))
	}
	if cfg.SegConns < 1 {
		cfg.SegConns = 1
	}
	if cfg.LinkBytes == 0 {
		cfg.LinkBytes = 16
	}
	r := &Ring{eng: eng, name: name, stops: stops, cfg: cfg,
		lastArrival: make([]sim.Cycle, stops*stops),
		segBusy:     make([]sim.Cycle, 2*stops*cfg.SegConns),
		cursor:      make([]int, 2*stops),
		slotScratch: make([]int, stops),
		prevScratch: make([]sim.Cycle, stops),
	}
	r.linkShift = -1
	if lb := cfg.LinkBytes; lb != 0 && lb&(lb-1) == 0 {
		s := 0
		for uint32(1)<<s != lb {
			s++
		}
		r.linkShift = s
	}
	return r
}

// route returns the direction (0 cw, 1 ccw) and hop count for the shortest
// path from a to b. Stops are in [0, stops), so the cyclic distances reduce
// to one conditional add — this runs per message, and integer division is
// the single most expensive instruction on that path.
func (r *Ring) route(from, to int) (dir, hops int) {
	cw := to - from
	if cw < 0 {
		cw += r.stops
	}
	if cw == 0 {
		return 0, 0
	}
	if ccw := r.stops - cw; ccw < cw {
		return 1, ccw
	}
	return 0, cw
}

// serCycles returns the serialization time of a message.
func (r *Ring) serCycles(bytes uint32) sim.Cycle {
	if bytes == 0 {
		bytes = 1
	}
	var c sim.Cycle
	if r.linkShift >= 0 {
		c = sim.Cycle((bytes + r.cfg.LinkBytes - 1) >> r.linkShift)
	} else {
		c = sim.Cycle((bytes + r.cfg.LinkBytes - 1) / r.cfg.LinkBytes)
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Transfer moves bytes from stop `from` to stop `to` and fires ev when the
// tail arrives (a nil ev books the segments and schedules nothing). It
// returns the arrival cycle. Same-stop transfers only pay the router
// overhead.
func (r *Ring) Transfer(from, to int, bytes uint32, ev sim.Event) sim.Cycle {
	arrival := r.Reserve(from, to, bytes)
	if ev != nil {
		r.eng.ScheduleEventAt(arrival, ev)
	}
	return arrival
}

// Reserve books the segment occupancy for one message and returns its
// arrival cycle without scheduling anything; the caller decides how the
// arrival is acted upon. Same-stop transfers only pay the router overhead.
//
// The message enters hop i's segment at start + i*hop and holds one of its
// connection slots for ser cycles (wormhole). The reference booking takes,
// at every hop, the slot that frees first, and pushes the whole message
// later when that slot is still busy at entry (reserveScan). Most routes
// are idle, and for them a cheaper booking gives the same arrivals: call a
// slot dead when it frees at or before now + RouterOver. Every hop of this
// and of any later message enters at or after that cycle (the clock never
// goes back), so a dead slot never delays anyone, and overwriting any dead
// slot instead of the earliest-free one moves no arrival. The idle-route
// pass books the cursor slot of each hop while it is dead; at the first
// live one it undoes its bookings and falls back to the scan.
func (r *Ring) Reserve(from, to int, bytes uint32) sim.Cycle {
	if from < 0 || from >= r.stops || to < 0 || to >= r.stops {
		panic(fmt.Sprintf("noc: %s: transfer %d->%d outside [0,%d)", r.name, from, to, r.stops))
	}
	r.transfers++
	r.bytes += uint64(bytes)
	fifoKey := from*r.stops + to
	start := r.eng.Now() + r.cfg.RouterOver
	dir, hops := r.route(from, to)
	if hops == 0 {
		return r.clampFIFO(fifoKey, start)
	}
	ser := r.serCycles(bytes)
	// Segment indices walk the ring incrementally (cw up from `from`, ccw
	// down from `from-1`), wrapping by compare: no divisions and no
	// materialized route on this per-message path.
	firstSeg := from // cw: hop i crosses segment from+i
	if dir == 1 {    // ccw: hop i crosses segment from-1-i
		firstSeg = from - 1
		if firstSeg < 0 {
			firstSeg += r.stops
		}
	}
	conns := r.cfg.SegConns
	i, s := 0, firstSeg
	for ; i < hops; i++ {
		seg := dir*r.stops + s
		c := r.cursor[seg]
		idx := seg*conns + c
		if r.segBusy[idx] > start {
			break
		}
		r.segBusy[idx] = start + sim.Cycle(i)*r.cfg.HopCycles + ser
		if c++; c == conns {
			c = 0
		}
		r.cursor[seg] = c
		s = r.nextSeg(dir, s)
	}
	if i < hops {
		// A route crosses each segment at most once, so stepping a cursor
		// back finds the slot this pass booked there. 0 is dead too, so
		// the scan decides as it would have on the overwritten value.
		s = firstSeg
		for k := 0; k < i; k++ {
			seg := dir*r.stops + s
			c := r.cursor[seg]
			if c == 0 {
				c = conns
			}
			c--
			r.cursor[seg] = c
			r.segBusy[seg*conns+c] = 0
			s = r.nextSeg(dir, s)
		}
		start = r.reserveScan(dir, firstSeg, hops, start, ser)
	}
	return r.clampFIFO(fifoKey, start+sim.Cycle(hops)*r.cfg.HopCycles+ser)
}

// reserveScan is the reference booking: find the earliest start at or
// after `start` such that every traversed segment has a free connection
// slot, book the earliest-free slot of each, and return that start. The
// pass is optimistic: each hop books its slot immediately. If a later
// segment is busy, the bookings made so far are rolled back bit-exact and
// the scan restarts at the pushed-back start time, so the final segBusy
// state is identical to a separate scan-then-book pair.
func (r *Ring) reserveScan(dir, firstSeg, hops int, start, ser sim.Cycle) sim.Cycle {
	origin := start
	booked := r.slotScratch // flat segBusy index of each booked slot
	saved := r.prevScratch  // the value each booking overwrote
	conns := r.cfg.SegConns
	for i, s := 0, firstSeg; i < hops; i++ {
		enter := start + sim.Cycle(i)*r.cfg.HopCycles
		segBase := (dir*r.stops + s) * conns
		slot, free := earliestSlot(r.segBusy[segBase : segBase+conns])
		if free > enter {
			// Roll back this attempt's bookings, push the whole message
			// start later, and restart: earlier segments must be
			// re-reserved at the new time.
			for k := 0; k < i; k++ {
				r.segBusy[booked[k]] = saved[k]
			}
			start += free - enter
			i, s = -1, firstSeg
			continue
		}
		idx := segBase + slot
		booked[i], saved[i] = idx, r.segBusy[idx]
		r.segBusy[idx] = enter + ser
		s = r.nextSeg(dir, s)
	}
	r.waitTotal += start - origin
	return start
}

// clampFIFO enforces in-order delivery per (from,to) route. The table's
// zero value means "no prior message", exactly like the map it replaced.
func (r *Ring) clampFIFO(fifoKey int, arrival sim.Cycle) sim.Cycle {
	if last := r.lastArrival[fifoKey]; arrival <= last {
		arrival = last + 1
	}
	r.lastArrival[fifoKey] = arrival
	return arrival
}

// nextSeg advances a segment index one hop in the given direction.
func (r *Ring) nextSeg(dir, s int) int {
	if dir == 0 {
		s++
		if s == r.stops {
			s = 0
		}
		return s
	}
	s--
	if s < 0 {
		s = r.stops - 1
	}
	return s
}

// earliestSlot returns the connection slot of a segment that frees first,
// and the cycle at which it frees. Ties resolve to the lowest slot.
func earliestSlot(busy []sim.Cycle) (slot int, free sim.Cycle) {
	slot = 0
	free = busy[0]
	for i := 1; i < len(busy); i++ {
		if busy[i] < free {
			free = busy[i]
			slot = i
		}
	}
	return slot, free
}

// Transfers returns the number of completed transfer reservations.
func (r *Ring) Transfers() uint64 { return r.transfers }

// Bytes returns the total payload bytes moved.
func (r *Ring) Bytes() uint64 { return r.bytes }

// ContentionCycles returns cumulative cycles transfers waited for segment
// slots.
func (r *Ring) ContentionCycles() sim.Cycle { return r.waitTotal }
