package core

import (
	"tasksuperscalar/internal/sim"
)

// verRec is one operand version: usage count, buffer location, link to the
// next (in-place) version waiting on this one, and rename-buffer ownership.
// The OVT is the physical-register-file analogue — it holds only meta-data;
// buffers live in an OS-assigned memory region (§IV.B.4).
//
// Records live in a sim.Arena indexed by a sim.Table of version numbers.
// The paper's fixed-capacity set-associative eDRAM array is the live-record
// counter checked against capacity: a full table stalls the gateway, while
// the host storage grows with the versions a run holds and allocates
// nothing once warm. A record whose creation is stashed behind a full
// table exists in the "pending" state, netting early AddUse/DecUse
// arrivals until the creation replays; buffer queries that arrive
// meanwhile park in the module's queries table.
type verRec struct {
	base uint64
	buf  uint64
	id   VersionID
	size uint32

	useCount  int32
	granted   int32 // total uses ever granted (release handshake with the ORT)
	totalUses int32 // lifetime consumer count (chain-length statistic)
	pendUses  int32 // pending only: net uses that arrived before the creation

	waiter   OperandID // hasWaiter: the in-place successor's producer operand
	producer OperandID // hasProducer: the writer operand producing the version

	bufBucket  uint8 // rename-buffer size class, log2 bytes
	ownsRename bool  // buf is a rename buffer owned by this version
	superseded bool
	hasWaiter  bool // an in-place successor waits for this version to die

	hasProducer    bool
	inPlaceNext    bool // the successor reuses this version's buffer
	copyInFlight   bool
	releasePending bool // ortRelease sent, awaiting ack
	dead           bool
	pending        bool // creation stashed; only pendUses is meaningful
}

// CopyEngine abstracts the external DMA engine that copies rename buffers
// back to their original object addresses (mem.System implements it). done
// fires when the copy completes; passing a (pooled) typed event keeps the
// per-copy-back path allocation-free.
type CopyEngine interface {
	Copy(src, dst uint64, size uint32, done sim.Event)
}

const (
	// Rename buffers come in power-of-2 sizes from 2^minBucketLog2 (256 B)
	// up to 2^maxBucketLog2; the free lists are a fixed per-log2-size array
	// of stacks (§IV.B.4's OS-assigned region, carved on demand).
	minBucketLog2 = 8
	maxBucketLog2 = 32
)

// ovtModule is one object versioning table. It tracks live versions,
// breaks anti- and output-dependencies by renaming output operands into
// buffers drawn from power-of-2 buckets, and unblocks chained inout
// versions in order as their predecessors die.
type ovtModule struct {
	fe    *Frontend
	index int
	node  int
	srv   *sim.Server[ovtMsg]

	capacity int // live versions the table holds (OVTBytesEach / ovtEntryBytes)

	// byNum maps a version number to its record's slot in recs (an arena,
	// so handlers may hold a *verRec across nested stash replays). It
	// starts empty and doubles at half load, so it grows with the live and
	// pending records a run holds, never with capacity.
	byNum sim.Table[uint32, uint32]
	recs  sim.Arena[verRec]
	nlive int // records in the live (non-pending) state

	stashed sim.FIFO[ovtMsg] // deferred creations while full

	// Free rename buffers by log2 size: fixed stacks, refilled by carving
	// 16-buffer chunks from the bump-allocated region.
	buckets [maxBucketLog2 + 1][]uint64
	nextBuf uint64

	// queries parks, per pending version number, the consumers that asked
	// for its buffer before its creation; qFree recycles their slices.
	queries sim.Table[uint32, []OperandID]
	qFree   []([]OperandID)

	copyEvents sim.Pool[ovtCopyDoneEvent]

	// Stats.
	created, released  uint64
	renames            uint64
	copyBacks          uint64
	inPlaceUnblocks    uint64
	stallEvents        uint64
	maxLive            int
	chainHist          []uint64 // dead versions by total consumer count
	renameBufOut       int      // rename buffers currently allocated
	renameBufHighWater int
}

func newOVT(fe *Frontend, index int) *ovtModule {
	o := &ovtModule{
		fe:       fe,
		index:    index,
		capacity: int(fe.cfg.OVTBytesEach / ovtEntryBytes),
		// Rename buffers live in a private high region per OVT.
		nextBuf: (uint64(1) << 44) + uint64(index)<<40,
	}
	o.srv = sim.NewServer(fe.eng, o.handle)
	return o
}

// --- version index ---

// rec returns the record (live or pending) for a version number, or nil.
func (o *ovtModule) rec(num uint32) *verRec {
	if slot := o.byNum.Get(num); slot != nil {
		return o.recs.At(*slot)
	}
	return nil
}

// insert binds num to a fresh, zeroed record. Version numbers are unique
// among live+pending records.
func (o *ovtModule) insert(num uint32) *verRec {
	slot, rec := o.recs.Alloc()
	o.byNum.Put(num, slot)
	*rec = verRec{}
	return rec
}

// remove unbinds num and frees its record's slot.
func (o *ovtModule) remove(num uint32) {
	o.recs.Free(*o.byNum.Get(num))
	o.byNum.Delete(num)
}

// pendingRec returns the pending record for num, creating it if absent.
func (o *ovtModule) pendingRec(num uint32) *verRec {
	if r := o.rec(num); r != nil {
		return r
	}
	r := o.insert(num)
	r.pending = true
	return r
}

// pendingCount returns the number of pending (stash-shadow) records; used
// by tests and leak checks.
func (o *ovtModule) pendingCount() int { return o.byNum.Len() - o.nlive }

// --- message handling ---

func (o *ovtModule) handle(m ovtMsg) sim.Cycle {
	switch m.kind {
	case ovtNewVersion:
		return o.handleNewVersion(m, false)
	case ovtAddUse:
		return o.handleAddUse(m.v)
	case ovtDecUse:
		return o.handleDecUse(m.v)
	case ovtQueryBuf:
		return o.handleQuery(m.v, m.op)
	case ovtReleaseAck:
		return o.handleReleaseAck(m.v, m.freed)
	default: // ovtCopyDone
		return o.handleCopyDone(m.v)
	}
}

// bucketFor returns the power-of-2 bucket index for a size.
func bucketFor(size uint32) int {
	b := minBucketLog2 // minimum 256 B buffers
	for (uint32(1) << b) < size {
		b++
	}
	return b
}

// allocBuffer grabs a rename buffer from the appropriate free stack,
// refilling the stack from the OS-assigned region when empty.
func (o *ovtModule) allocBuffer(size uint32) (uint64, uint8) {
	b := bucketFor(size)
	free := o.buckets[b]
	if len(free) == 0 {
		// Refill: carve a chunk of 16 buffers from the region.
		sz := uint64(1) << b
		for i := 0; i < 16; i++ {
			free = append(free, o.nextBuf)
			o.nextBuf += sz
		}
	}
	buf := free[len(free)-1]
	o.buckets[b] = free[:len(free)-1]
	o.renameBufOut++
	if o.renameBufOut > o.renameBufHighWater {
		o.renameBufHighWater = o.renameBufOut
	}
	return buf, uint8(b)
}

func (o *ovtModule) freeBuffer(buf uint64, bucket uint8) {
	o.buckets[bucket] = append(o.buckets[bucket], buf)
	o.renameBufOut--
}

func (o *ovtModule) handleNewVersion(m ovtMsg, replay bool) sim.Cycle {
	cost := procCycles + edramCycles
	if o.nlive >= o.capacity {
		o.stashed.Push(m)
		if !replay {
			o.stallEvents++
			o.fe.setStall(stallSrcOVT(o.index), true)
		}
		return cost
	}
	rec := o.rec(m.v.Num)
	var queries []OperandID
	var p int32
	if rec != nil {
		// A pending shadow exists: absorb its netted uses and take its
		// parked queries (answered below, once the buffer is known).
		p = rec.pendUses
		if q := o.queries.Get(m.v.Num); q != nil {
			queries = *q
			o.queries.Delete(m.v.Num)
		}
	} else {
		rec = o.insert(m.v.Num)
	}
	*rec = verRec{
		id:          m.v,
		base:        m.base,
		size:        m.size,
		useCount:    int32(m.initialUse),
		granted:     int32(m.initialUse),
		hasProducer: m.hasProducer,
		producer:    m.op,
	}
	if !m.hasProducer {
		// Producer-less (memory) versions: the initial reader counts as
		// a chained consumer for the chain-length statistic.
		rec.totalUses = int32(m.initialUse)
	}
	o.nlive++
	o.created++
	if o.nlive > o.maxLive {
		o.maxLive = o.nlive
	}
	if p != 0 {
		// p may be negative when holders finished before the stashed
		// creation was processed. Grants only count positive additions.
		rec.useCount += p
		if p > 0 {
			rec.granted += p
			rec.totalUses += p
		}
	}

	// createVersion runs the Figure 7–9 flows and returns the buffer the
	// version resolved to; parked queries are answered last, preserving
	// the message order of the pre-arena implementation (the record may
	// die and its arena slot be reused during nested stash replays, so the
	// buffer value is captured rather than re-read).
	buf := o.createVersion(m, rec)
	for _, c := range queries {
		o.sendDataReady(c, buf, false)
	}
	if queries != nil {
		o.qFree = append(o.qFree, queries[:0])
	}
	return cost
}

// createVersion services the body of a version creation once admitted; it
// returns the buffer address the version starts with.
func (o *ovtModule) createVersion(m ovtMsg, rec *verRec) uint64 {
	if !m.hasPrev {
		// First version of the object: data lives at the home address.
		rec.buf = m.base
		if m.hasProducer {
			// Output buffer is immediately available.
			o.grantOutput(rec)
		}
		o.maybeRelease(rec)
		return rec.buf
	}

	prev := o.rec(m.prev.Num)
	if prev == nil || prev.pending {
		panic("ovt: new version supersedes unknown version")
	}
	prev.superseded = true
	prev.inPlaceNext = m.inPlace
	if m.inPlace {
		// True-dependency chain (inout, or renaming disabled): reuse the
		// previous buffer and wait for the previous version to die.
		if prev.copyInFlight {
			// The previous buffer is being copied home; the successor
			// will find the data at the home address once it unblocks.
			rec.buf = prev.base
			prev.inPlaceNext = false // prev frees its own buffer
		} else {
			rec.buf = prev.buf
			rec.ownsRename = prev.ownsRename // ownership transfers at death
			rec.bufBucket = prev.bufBucket
		}
		prev.hasWaiter = true
		prev.waiter = m.op
		buf := rec.buf
		o.maybeRelease(prev)
		o.maybeReleaseByNum(m.v.Num)
		return buf
	}
	// Renamed output: fresh buffer, ready immediately (Figure 7).
	buf, bucket := o.allocBuffer(m.size)
	rec.buf = buf
	rec.ownsRename = true
	rec.bufBucket = bucket
	o.renames++
	o.grantOutput(rec)
	o.maybeRelease(prev)
	o.maybeReleaseByNum(m.v.Num)
	return buf
}

// maybeReleaseByNum advances the new version's lifecycle only if it is
// still live. maybeRelease(prev) above can cascade into nested stash
// replays that supersede and retire the version being created (its netted
// use count may already be zero under overload) — its arena slot is then
// recycled, so the held pointer must not be touched again. The pre-arena
// code reached the same outcome through the dead-record guard on a stable
// heap record; re-resolving by version number is the arena equivalent.
func (o *ovtModule) maybeReleaseByNum(num uint32) {
	if r := o.rec(num); r != nil && !r.pending {
		o.maybeRelease(r)
	}
}

// sendDataReady ships one readiness notification to an operand's TRS.
func (o *ovtModule) sendDataReady(op OperandID, buf uint64, output bool) {
	o.fe.sendToTRS(o.node, int(op.Task.TRS), trsMsg{kind: trsDataReady, op: op, buf: buf, output: output})
}

// grantOutput tells the producer's TRS that the output buffer is available.
func (o *ovtModule) grantOutput(rec *verRec) {
	o.sendDataReady(rec.producer, rec.buf, true)
}

func (o *ovtModule) handleAddUse(v VersionID) sim.Cycle {
	rec := o.rec(v.Num)
	if rec == nil || rec.pending {
		// The version's creation is stashed behind a full table; hold
		// the use until it replays.
		o.pendingRec(v.Num).pendUses++
		return procCycles + edramCycles
	}
	rec.useCount++
	rec.granted++
	rec.totalUses++
	return procCycles + edramCycles
}

func (o *ovtModule) handleDecUse(v VersionID) sim.Cycle {
	rec := o.rec(v.Num)
	if rec == nil || rec.pending {
		// The version's creation is stashed behind a full table and its
		// holder already finished (ORT-miss readers are ready at
		// decode). Net the release against the pending creation.
		o.pendingRec(v.Num).pendUses--
		return procCycles + edramCycles
	}
	rec.useCount--
	if rec.useCount < 0 {
		panic("ovt: negative use count")
	}
	o.maybeRelease(rec)
	return procCycles + edramCycles
}

func (o *ovtModule) handleQuery(v VersionID, consumer OperandID) sim.Cycle {
	rec := o.rec(v.Num)
	if rec == nil || rec.pending {
		// Creation stashed: park the query on the pending record's
		// version number and answer it when the creation replays.
		o.pendingRec(v.Num)
		if q := o.queries.Get(v.Num); q != nil {
			*q = append(*q, consumer)
		} else {
			var q []OperandID
			if n := len(o.qFree); n > 0 {
				q = o.qFree[n-1]
				o.qFree = o.qFree[:n-1]
			}
			o.queries.Put(v.Num, append(q, consumer))
		}
		return procCycles + edramCycles
	}
	o.sendDataReady(consumer, rec.buf, false)
	return procCycles + edramCycles
}

// maybeRelease advances a version's lifecycle when its use count reaches
// zero: superseded versions die (notifying any in-place waiter); the latest
// version of an object is copied back to its home address (if renamed) and
// its ORT entry released.
func (o *ovtModule) maybeRelease(rec *verRec) {
	if rec.useCount != 0 || rec.dead || rec.copyInFlight {
		return
	}
	if rec.superseded {
		o.die(rec)
		return
	}
	if rec.ownsRename {
		// Idle latest version in a rename buffer: copy the data back to
		// the original object address with the external DMA engine.
		rec.copyInFlight = true
		o.copyBacks++
		ev := o.copyEvents.Get()
		ev.o, ev.v = o, rec.id
		o.fe.copyEngine.Copy(rec.buf, rec.base, rec.size, ev)
		return
	}
	if !rec.releasePending {
		rec.releasePending = true
		o.fe.sendToORT(o.node, o.index, ortMsg{kind: ortRelease, base: rec.base, version: rec.id, granted: rec.granted})
	}
}

// ovtCopyDoneEvent adapts a DMA completion to the module's message queue;
// instances recycle through the module's pool so copy-backs do not
// allocate. It submits rather than delivers: mem.System.Copy fires it
// inside an invalidation callback, where the tail-call argument behind a
// delivery's in-place service does not hold.
type ovtCopyDoneEvent struct {
	o *ovtModule
	v VersionID
}

// Fire implements sim.Event: it recycles itself, then submits the
// copy-done message.
func (ev *ovtCopyDoneEvent) Fire() {
	o, v := ev.o, ev.v
	o.copyEvents.Put(ev)
	o.srv.Submit(ovtMsg{kind: ovtCopyDone, v: v})
}

func (o *ovtModule) handleCopyDone(v VersionID) sim.Cycle {
	rec := o.rec(v.Num)
	if rec == nil || rec.pending {
		return procCycles
	}
	rec.copyInFlight = false
	if rec.ownsRename {
		o.freeBuffer(rec.buf, rec.bufBucket)
		rec.ownsRename = false
	}
	rec.buf = rec.base
	o.maybeRelease(rec)
	return procCycles
}

// die removes a superseded version: frees its rename buffer (unless the
// successor took ownership) and unblocks an in-place successor.
func (o *ovtModule) die(rec *verRec) {
	rec.dead = true
	if o.fe.cfg.RecordChains {
		for int(rec.totalUses) >= len(o.chainHist) {
			o.chainHist = append(o.chainHist, 0)
		}
		o.chainHist[rec.totalUses]++
	}
	if rec.ownsRename && !rec.inPlaceNext {
		o.freeBuffer(rec.buf, rec.bufBucket)
		rec.ownsRename = false
	}
	if rec.hasWaiter {
		// Figure 9: "data ready for output" once all users of the
		// previous version finished.
		o.inPlaceUnblocks++
		o.sendDataReady(rec.waiter, rec.buf, true)
	}
	o.remove(rec.id.Num)
	o.nlive--
	o.released++
	o.replayStashed()
}

func (o *ovtModule) handleReleaseAck(v VersionID, freed bool) sim.Cycle {
	rec := o.rec(v.Num)
	cost := procCycles
	if rec == nil || rec.pending {
		return cost
	}
	rec.releasePending = false
	if freed {
		// The ORT freed the entry with grant counts matching: no use of
		// this version can exist or arrive. Retire the record.
		if rec.useCount != 0 {
			panic("ovt: freed entry with live uses")
		}
		rec.superseded = true
		o.die(rec)
		return cost
	}
	// The entry changed since we observed the version idle: either an
	// AddUse is in flight (it will arrive and its DecUse re-triggers the
	// release) or a newer version superseded us (its NewVersion message
	// will arrive and retire this record). Either way a pending message
	// re-triggers the lifecycle; do not spin on releases here.
	return cost
}

// replayStashed admits deferred version creations after a release.
func (o *ovtModule) replayStashed() {
	for o.stashed.Len() > 0 && o.nlive < o.capacity {
		m := o.stashed.Pop()
		o.handleNewVersion(m, true)
	}
	if o.stashed.Len() == 0 {
		o.fe.setStall(stallSrcOVT(o.index), false)
	}
}

// live returns the number of live version records.
func (o *ovtModule) live() int { return o.nlive }
