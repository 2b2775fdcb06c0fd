package noc

import (
	"math/rand"
	"testing"

	"tasksuperscalar/internal/sim"
)

// refRing is the reference slot booking, kept as a plain copy of the
// earliest-free scan: at every hop it takes the connection slot that frees
// first (lowest index on a tie), and when that slot is still busy at the
// hop's entry it rolls the bookings back and restarts the whole message
// later. Same-route messages then arrive in FIFO order.
type refRing struct {
	stops       int
	cfg         Config
	busy        [][]sim.Cycle // busy[dir*stops+seg][conn]: cycle the slot frees
	lastArrival []sim.Cycle
	transfers   uint64
	bytes       uint64
	waitTotal   sim.Cycle
}

func newRefRing(stops int, cfg Config) *refRing {
	r := &refRing{stops: stops, cfg: cfg, lastArrival: make([]sim.Cycle, stops*stops)}
	r.busy = make([][]sim.Cycle, 2*stops)
	for i := range r.busy {
		r.busy[i] = make([]sim.Cycle, cfg.SegConns)
	}
	return r
}

func (r *refRing) reserve(now sim.Cycle, from, to int, bytes uint32) sim.Cycle {
	r.transfers++
	r.bytes += uint64(bytes)
	cw := (to - from + r.stops) % r.stops
	dir, hops := 0, cw
	if ccw := r.stops - cw; cw > 0 && ccw < cw {
		dir, hops = 1, ccw
	}
	seg := func(i int) []sim.Cycle {
		if dir == 0 {
			return r.busy[(from+i)%r.stops]
		}
		return r.busy[r.stops+((from-1-i)%r.stops+r.stops)%r.stops]
	}
	n := bytes
	if n == 0 {
		n = 1
	}
	ser := sim.Cycle((n + r.cfg.LinkBytes - 1) / r.cfg.LinkBytes)
	start := now + r.cfg.RouterOver
	type booking struct {
		slot []sim.Cycle
		c    int
		was  sim.Cycle
	}
	var booked []booking
	for i := 0; i < hops; i++ {
		enter := start + sim.Cycle(i)*r.cfg.HopCycles
		slots := seg(i)
		best := 0
		for c := range slots {
			if slots[c] < slots[best] {
				best = c
			}
		}
		if free := slots[best]; free > enter {
			for k := len(booked) - 1; k >= 0; k-- {
				booked[k].slot[booked[k].c] = booked[k].was
			}
			booked = booked[:0]
			start += free - enter
			i = -1
			continue
		}
		booked = append(booked, booking{slots, best, slots[best]})
		slots[best] = enter + ser
	}
	arrival := now + r.cfg.RouterOver
	if hops > 0 {
		r.waitTotal += start - (now + r.cfg.RouterOver)
		arrival = start + sim.Cycle(hops)*r.cfg.HopCycles + ser
	}
	key := from*r.stops + to
	if last := r.lastArrival[key]; arrival <= last {
		arrival = last + 1
	}
	r.lastArrival[key] = arrival
	return arrival
}

// Property: Ring.Reserve books exactly as the reference scan does. Each
// seed draws a ring geometry and a traffic shape, then sends the same
// random messages through both rings while the clock advances by a random
// step before a third of them, so idle routes, dead slots, contention
// restarts and FIFO clamps all occur. Every arrival, ContentionCycles, Transfers
// and Bytes must match.
func TestRingReserveMatchesReference(t *testing.T) {
	const seeds, transfers = 400, 3000
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stops := 1 + rng.Intn(50)
		cfg := Config{
			HopCycles:  sim.Cycle(1 + rng.Intn(2)),
			LinkBytes:  []uint32{8, 12, 16}[rng.Intn(3)],
			SegConns:   1 + rng.Intn(5),
			RouterOver: sim.Cycle(rng.Intn(4)),
		}
		maxStep := []int{1, 4, 16, 64}[rng.Intn(4)]
		bigEvery := 1 + rng.Intn(16) // one message in bigEvery may be up to 4 KiB
		eng := sim.NewEngine()
		got := NewRing(eng, "r", stops, cfg)
		want := newRefRing(stops, cfg)
		for i := 0; i < transfers; i++ {
			if rng.Intn(3) == 0 {
				eng.RunFor(sim.Cycle(rng.Intn(maxStep)))
			}
			from, to := rng.Intn(stops), rng.Intn(stops)
			bytes := uint32(rng.Intn(65))
			if rng.Intn(bigEvery) == 0 {
				bytes = uint32(rng.Intn(4097))
			}
			a := got.Reserve(from, to, bytes)
			b := want.reserve(eng.Now(), from, to, bytes)
			if a != b {
				t.Fatalf("seed %d (stops %d, %+v), transfer %d at cycle %d, %d->%d %dB: arrival %d, reference %d",
					seed, stops, cfg, i, eng.Now(), from, to, bytes, a, b)
			}
			if got.ContentionCycles() != want.waitTotal {
				t.Fatalf("seed %d, transfer %d: ContentionCycles %d, reference %d",
					seed, i, got.ContentionCycles(), want.waitTotal)
			}
		}
		if got.Transfers() != want.transfers || got.Bytes() != want.bytes {
			t.Fatalf("seed %d: Transfers/Bytes %d/%d, reference %d/%d",
				seed, got.Transfers(), got.Bytes(), want.transfers, want.bytes)
		}
	}
}
