// Package mem models the CMP memory system of Table II: private L1 caches,
// a banked shared L2 with a directory-based MSI protocol, DDR3 memory
// controllers, and the DMA engine the OVT uses to copy rename buffers back
// to their original addresses.
//
// The System type tracks coherence at memory-object granularity (an operand
// is fetched and written back as one DMA-style burst, matching how the
// paper's Cell-derived runtime stages task operands), which keeps large
// simulations fast while exercising the same protocol states.
package mem

import (
	"tasksuperscalar/internal/sim"

	"tasksuperscalar/internal/noc"
)

// The Table II memory system's fixed sizes and latencies.
const (
	l1Bytes   uint64    = 64 << 10 // per-core L1 capacity
	l1Latency sim.Cycle = 3
	l2Banks             = 32 // a power of 2, so bankFor's modulus is a mask
	l2Latency sim.Cycle = 22
	// ctrlBytes is the size of a coherence request, probe or
	// acknowledgement on the NoC (model calibration).
	ctrlBytes uint32 = 16
)

// dirEntry is the directory state for one memory object, embedded in the L2
// (MSI at object granularity: an object is Modified in one L1, Shared in
// several, or only present in L2/DRAM).
type dirEntry struct {
	size    uint32
	inL2    bool
	owner   int32 // core holding a dirty copy, -1 if none
	sharers []int32
}

func (d *dirEntry) addSharer(c int32) {
	for _, s := range d.sharers {
		if s == c {
			return
		}
	}
	d.sharers = append(d.sharers, c)
}

func (d *dirEntry) dropSharer(c int32) {
	for i, s := range d.sharers {
		if s == c {
			d.sharers[i] = d.sharers[len(d.sharers)-1]
			d.sharers = d.sharers[:len(d.sharers)-1]
			return
		}
	}
}

// l1Obj tracks one object resident in a core's L1.
type l1Obj struct {
	size  uint32
	dirty bool
	used  uint64 // LRU stamp (strictly increasing per core, so unique)
}

// l1State is one core's L1 content: a table from object base address to
// l1Obj, stored inline, so residency churn allocates nothing once the
// table reaches its working-set size.
type l1State struct {
	objs sim.Table[uint64, l1Obj]

	used uint64
	tick uint64
}

// lruVictim returns the base of the least-recently-used object. LRU stamps
// are unique, so the victim does not depend on table layout.
func (st *l1State) lruVictim() uint64 {
	var victim uint64
	best := ^uint64(0)
	for base, o := range st.objs.All() {
		if o.used < best {
			best, victim = o.used, base
		}
	}
	return victim
}

// System is the object-granular coherent memory hierarchy. Worker cores
// fetch task operands as DMA-style bursts, the directory keeps L1 copies
// coherent, and the DMA engine copies rename buffers back to their home
// addresses on behalf of the OVT.
type System struct {
	eng  *sim.Engine
	net  *noc.Network
	dram *DRAM

	coreNodes []noc.NodeID
	bankNodes []noc.NodeID
	dmaNode   noc.NodeID

	// dir is the directory: object base address → slot in dirRecs.
	// Entries are never removed (the directory's working set is the
	// program's object set), and the arena keeps a *dirEntry valid for
	// the protocol closures that hold one across multi-hop message chains.
	dir     sim.Table[uint64, uint32]
	dirRecs sim.Arena[dirEntry]
	l1      []*l1State

	// events recycles the typed events that drive the multi-stage fetch
	// and writeback protocols, so burst traffic does not allocate per
	// protocol step.
	events sim.Pool[memEvent]

	// Stats.
	fetches       uint64
	l1ObjHits     uint64
	invalidations uint64
	writebacks    uint64
	dmaCopies     uint64
	bytesMoved    uint64
}

// NewSystem builds the memory system and attaches its L2 banks, memory
// controllers and DMA engine to the network. coreNodes must already be
// attached by the caller (the backend owns core nodes); each has an L1.
func NewSystem(eng *sim.Engine, net *noc.Network, coreNodes []noc.NodeID) *System {
	m := &System{
		eng:       eng,
		net:       net,
		dram:      NewDRAM(eng, DefaultDRAMConfig()),
		coreNodes: coreNodes,
	}
	for i := 0; i < l2Banks; i++ {
		m.bankNodes = append(m.bankNodes, net.AddGlobalNode("l2bank"))
	}
	m.dmaNode = net.AddGlobalNode("dma")
	m.l1 = make([]*l1State, len(coreNodes))
	for i := range m.l1 {
		m.l1[i] = &l1State{}
	}
	return m
}

// BankNode returns the NoC node of the L2 bank that homes addr.
func (m *System) BankNode(addr uint64) noc.NodeID {
	return m.bankNodes[m.bankFor(addr)]
}

func (m *System) bankFor(addr uint64) int {
	// Mix the address so consecutively allocated objects spread out.
	h := addr >> 6
	h ^= h >> 13
	return int(h % l2Banks)
}

func (m *System) entry(base uint64, size uint32) *dirEntry {
	var e *dirEntry
	if slot := m.dir.Get(base); slot != nil {
		e = m.dirRecs.At(*slot)
	} else {
		var slot uint32
		slot, e = m.dirRecs.Alloc()
		*e = dirEntry{size: size, owner: -1}
		m.dir.Put(base, slot)
	}
	if size > e.size {
		e.size = size
	}
	return e
}

// resident reports whether core holds the object, updating LRU on touch.
func (m *System) resident(core int, base uint64) bool {
	st := m.l1[core]
	o := st.objs.Get(base)
	if o != nil {
		st.tick++
		o.used = st.tick
	}
	return o != nil
}

// install places the object in core's L1, evicting LRU objects as needed.
// Objects larger than the L1 bypass it.
func (m *System) install(core int, base uint64, size uint32, dirty bool) {
	if uint64(size) > l1Bytes {
		return
	}
	st := m.l1[core]
	if o := st.objs.Get(base); o != nil {
		o.dirty = o.dirty || dirty
		st.tick++
		o.used = st.tick
		return
	}
	for st.used+uint64(size) > l1Bytes && st.objs.Len() > 0 {
		m.evictLRU(core)
	}
	st.tick++
	st.objs.Put(base, l1Obj{size: size, dirty: dirty, used: st.tick})
	st.used += uint64(size)
	e := m.entry(base, size)
	e.addSharer(int32(core))
	if dirty {
		e.owner = int32(core)
	}
}

func (m *System) evictLRU(core int) {
	st := m.l1[core]
	victim := st.lruVictim()
	o := *st.objs.Get(victim)
	st.objs.Delete(victim)
	st.used -= uint64(o.size)
	e := m.entry(victim, o.size)
	e.dropSharer(int32(core))
	if o.dirty && e.owner == int32(core) {
		// Asynchronous dirty eviction writeback to the home bank.
		e.owner = -1
		e.inL2 = true
		m.writebacks++
		m.bytesMoved += uint64(o.size)
		m.net.Send(m.coreNodes[core], m.BankNode(victim), o.size, nil)
	}
}

// memEvent drives the staged fetch and writeback protocols as one pooled
// object with a kind tag, advancing kind at each protocol step instead of
// nesting closures.
type memEvent struct {
	m    *System
	kind uint8
	core int32
	base uint64
	size uint32
	then func()
}

const (
	evFetchReq     uint8 = iota // request arrived at the home bank
	evFetchData                 // data available in L2: charge L2 latency
	evFetchBurst                // start the data burst bank -> core
	evFetchInstall              // burst arrived: install and complete
	evWriteback                 // writeback burst arrived at the bank
)

func (m *System) getEvent(kind uint8, core int, base uint64, size uint32, then func()) *memEvent {
	ev := m.events.Get()
	ev.m, ev.kind, ev.core, ev.base, ev.size, ev.then = m, kind, int32(core), base, size, then
	return ev
}

func (m *System) putEvent(ev *memEvent) {
	ev.then = nil
	m.events.Put(ev)
}

func (ev *memEvent) Fire() {
	m := ev.m
	switch ev.kind {
	case evFetchReq:
		e := m.entry(ev.base, ev.size)
		switch {
		case e.owner >= 0 && e.owner != ev.core:
			// Dirty in another L1: recall it first (cold path — the
			// recall round trip stays closure-based).
			owner := e.owner
			e.owner = -1
			e.inL2 = true
			m.writebacks++
			bank := m.BankNode(ev.base)
			base := ev.base
			m.net.Send(bank, m.coreNodes[owner], ctrlBytes, sim.FuncEvent(func() {
				if o := m.l1[owner].objs.Get(base); o != nil {
					o.dirty = false
				}
				ev.kind = evFetchData
				m.net.Send(m.coreNodes[owner], bank, ev.size, ev)
			}))
		case e.inL2:
			ev.kind = evFetchData
			ev.Fire()
		default:
			// First touch: bring the object from DRAM into L2.
			done := m.dram.Transfer(ev.base, ev.size)
			e.inL2 = true
			ev.kind = evFetchData
			m.eng.ScheduleEventAt(done, ev)
		}
	case evFetchData:
		// L2 access latency, then data burst bank -> core.
		ev.kind = evFetchBurst
		m.eng.ScheduleEvent(l2Latency, ev)
	case evFetchBurst:
		m.bytesMoved += uint64(ev.size)
		ev.kind = evFetchInstall
		m.net.Send(m.BankNode(ev.base), m.coreNodes[ev.core], ev.size, ev)
	case evFetchInstall:
		m.install(int(ev.core), ev.base, ev.size, false)
		then := ev.then
		m.putEvent(ev)
		if then != nil {
			then()
		}
	case evWriteback:
		then := ev.then
		m.putEvent(ev)
		m.eng.Schedule(l2Latency, then)
	}
}

// Fetch acquires a read (shared) copy of the object into core's L1 and
// calls then when the data has arrived.
func (m *System) Fetch(core int, base uint64, size uint32, then func()) {
	if then == nil {
		then = func() {}
	}
	m.fetches++
	m.entry(base, size)
	if m.resident(core, base) {
		m.l1ObjHits++
		m.eng.Schedule(l1Latency, then)
		return
	}
	// Request message to the home bank.
	ev := m.getEvent(evFetchReq, core, base, size, then)
	m.net.Send(m.coreNodes[core], m.BankNode(base), ctrlBytes, ev)
}

// AcquireWrite obtains exclusive ownership of the object for core without
// transferring data (used for pure output operands: write-allocate of a
// fresh buffer). Sharers elsewhere are invalidated. then runs once all
// invalidation acks return.
func (m *System) AcquireWrite(core int, base uint64, size uint32, then func()) {
	if then == nil {
		then = func() {}
	}
	e := m.entry(base, size)
	bank := m.BankNode(base)
	coreNode := m.coreNodes[core]
	m.net.Send(coreNode, bank, ctrlBytes, sim.FuncEvent(func() {
		m.invalidateOthers(core, base, e, func() {
			m.install(core, base, size, true)
			e.owner = int32(core)
			m.eng.Schedule(l1Latency, then)
		})
	}))
}

// FetchExclusive acquires a writable copy including current data (inout
// operands).
func (m *System) FetchExclusive(core int, base uint64, size uint32, then func()) {
	if then == nil {
		then = func() {}
	}
	m.Fetch(core, base, size, func() {
		e := m.entry(base, size)
		m.invalidateOthers(core, base, e, func() {
			if o := m.l1[core].objs.Get(base); o != nil {
				o.dirty = true
			}
			e.owner = int32(core)
			then()
		})
	})
}

// invalidateOthers sends invalidations to every sharer except core and
// waits for all acks.
func (m *System) invalidateOthers(core int, base uint64, e *dirEntry, then func()) {
	var targets []int32
	for _, s := range e.sharers {
		if s != int32(core) {
			targets = append(targets, s)
		}
	}
	if len(targets) == 0 {
		then()
		return
	}
	bank := m.BankNode(base)
	pending := len(targets)
	for _, tgt := range targets {
		tgt := tgt
		m.invalidations++
		m.net.Send(bank, m.coreNodes[tgt], ctrlBytes, sim.FuncEvent(func() {
			st := m.l1[tgt]
			if o := st.objs.Get(base); o != nil {
				size := o.size
				st.objs.Delete(base)
				st.used -= uint64(size)
			}
			m.net.Send(m.coreNodes[tgt], bank, ctrlBytes, sim.FuncEvent(func() {
				pending--
				if pending == 0 {
					then()
				}
			}))
		}))
		e.dropSharer(tgt)
	}
	if e.owner >= 0 && e.owner != int32(core) {
		e.owner = -1
	}
}

// Writeback flushes core's dirty copy of the object to its home L2 bank
// (called when a task finishes so consumers can observe its outputs).
// The core keeps a clean shared copy.
func (m *System) Writeback(core int, base uint64, size uint32, then func()) {
	if then == nil {
		then = func() {}
	}
	e := m.entry(base, size)
	if o := m.l1[core].objs.Get(base); o != nil {
		o.dirty = false
	}
	if e.owner == int32(core) {
		e.owner = -1
	}
	e.inL2 = true
	m.writebacks++
	m.bytesMoved += uint64(size)
	ev := m.getEvent(evWriteback, core, base, size, then)
	m.net.Send(m.coreNodes[core], m.BankNode(base), size, ev)
}

// Copy performs a DMA copy between two objects (rename-buffer copy-back):
// data moves from src's home bank to dst's home bank, and stale L1 copies
// of dst are invalidated. done fires when the copy completes (it implements
// core.CopyEngine; the OVT passes a pooled event).
func (m *System) Copy(src, dst uint64, size uint32, done sim.Event) {
	m.dmaCopies++
	m.bytesMoved += uint64(size)
	e := m.entry(dst, size)
	m.net.Send(m.dmaNode, m.BankNode(src), ctrlBytes, sim.FuncEvent(func() {
		m.net.Send(m.BankNode(src), m.BankNode(dst), size, sim.FuncEvent(func() {
			m.invalidateOthers(-1, dst, e, func() {
				e.inL2 = true
				if done != nil {
					done.Fire()
				}
			})
		}))
	}))
}

// Stats reports cumulative memory-system activity.
type Stats struct {
	Fetches       uint64
	L1ObjHits     uint64
	Invalidations uint64
	Writebacks    uint64
	DMACopies     uint64
	BytesMoved    uint64
	DRAMTransfers uint64
	DRAMBytes     uint64
}

// Snapshot returns the current statistics.
func (m *System) Snapshot() Stats {
	dt, db := m.dram.Stats()
	return Stats{
		Fetches:       m.fetches,
		L1ObjHits:     m.l1ObjHits,
		Invalidations: m.invalidations,
		Writebacks:    m.writebacks,
		DMACopies:     m.dmaCopies,
		BytesMoved:    m.bytesMoved,
		DRAMTransfers: dt,
		DRAMBytes:     db,
	}
}
