package core

import (
	"math/bits"

	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// ortEntry is the payload of one way: an object's most recent user and its
// latest version (the renaming-table row). The object's base address and
// the way's valid bit live in the set's tag block.
type ortEntry struct {
	lastUser    OperandID
	lastUserGen uint32

	latestVer VersionID
	uses      int32 // uses granted for latestVer (release handshake)
}

// wayMask holds one valid bit per way of a set.
type wayMask = uint16

const allWays wayMask = 1<<ortWays - 1 // fails to compile if ortWays outgrows wayMask

// ortModule is one object renaming table: a 16-way logical cache of memory
// objects mapped onto an eDRAM block. Tags for each set live in two 64 B
// blocks that are read sequentially (§IV.B.3). ORTs never evict: a full set
// stalls the gateway until an entry is released.
type ortModule struct {
	fe    *Frontend
	index int
	node  int
	srv   *sim.Server[ortMsg]

	// Way i of set s is index s*ortWays+i of tags and entries, which are
	// preallocated from the configured table capacity — the fixed
	// set-associative eDRAM block of §IV.B.3. A set's tags (its 128 B tag
	// block) and valid bits are all a lookup reads; only a hit or an
	// insert touches the entry.
	tags    []uint64 // each way's object base address
	valid   []wayMask
	entries []ortEntry
	nsets   int
	setMask int                // nsets-1 when nsets is a power of 2, else -1
	waiting []sim.FIFO[ortMsg] // stashed decodes per full set
	nwait   int                // total stashed operands
	verSeq  uint32             // version number allocator for the paired OVT

	// Stats.
	lookups, hits, inserts, releases uint64
	stallEvents                      uint64
	occupied                         int
	maxOccupied                      int
}

func newORT(fe *Frontend, index int) *ortModule {
	entries := int(fe.cfg.ORTBytesEach / ortEntryBytes)
	nsets := entries / ortWays
	if nsets < 1 {
		nsets = 1
	}
	o := &ortModule{fe: fe, index: index, nsets: nsets}
	o.setMask = -1
	if nsets&(nsets-1) == 0 {
		o.setMask = nsets - 1 // power-of-2 set count: mask instead of mod
	}
	o.tags = make([]uint64, nsets*ortWays)
	o.valid = make([]wayMask, nsets)
	o.entries = make([]ortEntry, nsets*ortWays)
	o.waiting = make([]sim.FIFO[ortMsg], nsets)
	o.srv = sim.NewServer(fe.eng, o.handle)
	return o
}

func (o *ortModule) handle(m ortMsg) sim.Cycle {
	switch m.kind {
	case ortDecode:
		return o.handleDecode(m, false)
	default: // ortRelease
		return o.handleRelease(m)
	}
}

func (o *ortModule) setFor(base uint64) int {
	h := base >> 6
	h ^= h >> 17
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	if o.setMask >= 0 {
		return int(h & uint64(o.setMask)) // identical to % for power-of-2 nsets
	}
	return int(h % uint64(o.nsets))
}

// ortLookupCycles is the tag access: two 64 B blocks read sequentially.
const ortLookupCycles = 2 * edramCycles

// find returns the way of set that holds base, or -1.
func (o *ortModule) find(set int, base uint64) int {
	valid := o.valid[set]
	for i, tag := range o.tags[set*ortWays : (set+1)*ortWays] {
		if tag == base && valid&(1<<i) != 0 {
			return set*ortWays + i
		}
	}
	return -1
}

// freeWay returns the lowest free way of set, or -1 when the set is full.
func (o *ortModule) freeWay(set int) int {
	free := ^o.valid[set] & allWays
	if free == 0 {
		return -1
	}
	return set*ortWays + bits.TrailingZeros16(free)
}

func (o *ortModule) newVersion() VersionID {
	o.verSeq++
	return VersionID{OVT: uint16(o.index), Num: o.verSeq}
}

// handleDecode performs the renaming-table lookup for one operand and
// drives the flows of Figures 7 (output), 8 (input) and 9 (inout).
func (o *ortModule) handleDecode(m ortMsg, replay bool) sim.Cycle {
	cost := procCycles + ortLookupCycles
	set := o.setFor(m.base)
	if !replay && o.waiting[set].Len() > 0 {
		// Preserve per-object decode order behind stashed operands.
		o.waiting[set].Push(m)
		o.nwait++
		return cost
	}
	o.lookups++
	way := o.find(set, m.base)
	if way < 0 {
		w := o.freeWay(set)
		if w < 0 {
			// Set full: hold the operand until an entry is released.
			// The gateway is stalled only when the stash outgrows its
			// credit limit (per-object order is kept by the per-set
			// FIFO stash).
			o.waiting[set].Push(m)
			o.nwait++
			o.stallEvents++
			if o.nwait > ortStashLimit {
				o.fe.setStall(stallSrcORT(o.index), true)
			}
			return cost
		}
		return cost + o.decodeMiss(m, w)
	}
	o.hits++
	return cost + o.decodeHit(m, &o.entries[way])
}

// decodeMiss services an operand whose object has no live entry, inserting
// one into free way w: the data (if read) lives at its home address in
// memory.
func (o *ortModule) decodeMiss(m ortMsg, w int) sim.Cycle {
	v := o.newVersion()
	o.tags[w] = m.base
	o.valid[w/ortWays] |= 1 << (w % ortWays)
	o.entries[w] = ortEntry{
		lastUser:    m.op,
		lastUserGen: o.fe.trsGen(m.op.Task),
		latestVer:   v,
		uses:        1,
	}
	o.inserts++
	o.occupied++
	if o.occupied > o.maxOccupied {
		o.maxOccupied = o.occupied
	}
	info := trsMsg{kind: trsOperandInfo, op: m.op, dir: m.dir, version: v}
	nv := ovtMsg{kind: ovtNewVersion, v: v, base: m.base, size: m.size, initialUse: 1}
	switch m.dir {
	case taskmodel.In:
		// Data is in memory; the operand is immediately ready.
		info.immediateReady = 1
		info.buf = m.base
	case taskmodel.InOut:
		// No previous version: input data is in memory; the OVT grants
		// the (in-place) output buffer.
		info.immediateReady = 1
		info.buf = m.base
		nv.hasProducer = true
		nv.op = m.op
		nv.inPlace = true
	case taskmodel.Out:
		// No previous version to protect: write in place. The OVT sends
		// the output-buffer grant.
		nv.hasProducer = true
		nv.op = m.op
		nv.inPlace = true
	}
	o.fe.sendToTRS(o.node, int(m.op.Task.TRS), info)
	o.fe.sendToOVT(o.node, o.index, nv)
	return edramCycles // entry insert
}

// decodeHit services an operand whose object has a live entry.
func (o *ortModule) decodeHit(m ortMsg, e *ortEntry) sim.Cycle {
	prevUser := e.lastUser
	prevGen := e.lastUserGen
	prevVer := e.latestVer

	info := trsMsg{kind: trsOperandInfo, op: m.op, dir: m.dir}
	switch m.dir {
	case taskmodel.In:
		// RaR or RaW: register with the previous user, join the version.
		info.version = prevVer
		info.hasProducer = true
		info.producer = prevUser
		info.prodGen = prevGen
		o.fe.sendToOVT(o.node, o.index, ovtMsg{kind: ovtAddUse, v: prevVer})
		e.uses++
		if o.fe.cfg.Chaining || m.dir.Writes() {
			e.lastUser = m.op
			e.lastUserGen = o.fe.trsGen(m.op.Task)
		}
	case taskmodel.Out:
		v := o.newVersion()
		info.version = v
		o.fe.sendToOVT(o.node, o.index, ovtMsg{
			kind: ovtNewVersion, v: v, base: m.base, size: m.size,
			hasProducer: true, op: m.op,
			hasPrev: true, prev: prevVer,
			inPlace:    !o.fe.cfg.Renaming,
			initialUse: 1,
		})
		e.lastUser = m.op
		e.lastUserGen = o.fe.trsGen(m.op.Task)
		e.latestVer = v
		e.uses = 1
	case taskmodel.InOut:
		// True dependency: never renamed. Register with the previous
		// user for input data; the OVT grants the output buffer once
		// the previous version dies.
		v := o.newVersion()
		info.version = v
		info.hasProducer = true
		info.producer = prevUser
		info.prodGen = prevGen
		o.fe.sendToOVT(o.node, o.index, ovtMsg{
			kind: ovtNewVersion, v: v, base: m.base, size: m.size,
			hasProducer: true, op: m.op,
			hasPrev: true, prev: prevVer,
			inPlace:    true,
			initialUse: 1,
		})
		e.lastUser = m.op
		e.lastUserGen = o.fe.trsGen(m.op.Task)
		e.latestVer = v
		e.uses = 1
	}
	o.fe.sendToTRS(o.node, int(m.op.Task.TRS), info)
	return edramCycles // entry update
}

// handleRelease frees the object's entry if its latest version is the one
// the OVT declared idle, then replays stalled operands for the set.
func (o *ortModule) handleRelease(m ortMsg) sim.Cycle {
	cost := procCycles + ortLookupCycles
	set := o.setFor(m.base)
	i := o.find(set, m.base)
	freed := false
	if i >= 0 && o.entries[i].latestVer == m.version && o.entries[i].uses == m.granted {
		// No grant happened since the OVT observed the version idle,
		// and none can be in flight: safe to free.
		o.valid[set] &^= 1 << (i % ortWays)
		o.occupied--
		o.releases++
		freed = true
	}
	o.fe.sendToOVT(o.node, o.index, ovtMsg{kind: ovtReleaseAck, v: m.version, freed: freed})
	// Replay stashed decodes for this set, in order.
	for freed && o.waiting[set].Len() > 0 {
		if o.freeWay(set) < 0 && o.find(set, o.waiting[set].Front().base) < 0 {
			break
		}
		w := o.waiting[set].Pop()
		o.nwait--
		cost += o.handleDecode(w, true)
	}
	if o.nwait == 0 {
		o.fe.setStall(stallSrcORT(o.index), false)
	}
	return cost
}
