package core

import (
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// opRec is the per-operand state stored in a task's TRS blocks (32 B). The
// object's base and size are not copied here: dispatch reads them from the
// task itself.
type opRec struct {
	buf     uint64
	version VersionID
	next    OperandID // consumer chaining: the single next consumer, or noOperand

	// dir is In, the zero value, until the operand info arrives; an early
	// output-buffer grant relies on that (handleDataReady).
	dir      taskmodel.Dir
	pending  int8 // data-ready messages still required (negative: early arrivals)
	stored   bool // operand info has arrived from the ORT/gateway
	dataDone bool // input data available (pure readers forward on arrival)
}

// taskRec is the in-flight task meta-data held by a TRS (main block plus
// indirect blocks). Records live in the station's sim.Arena: the first
// mainBlockOperands operands are embedded inline (the paper's main block),
// the rest spill to a per-slot slice whose capacity is reused when the slot
// recycles (the indirect blocks).
type taskRec struct {
	main  [mainBlockOperands]opRec
	spill []opRec
	task  *taskmodel.Task // nil while the slot is free

	decodedAt sim.Cycle
	readyAt   sim.Cycle

	id     TaskID
	gen    uint32
	blocks uint8
	nops   uint8

	pendingOps   int8 // operand records not yet stored
	pendingReady int8 // data-ready messages not yet received
	dispatched   bool
}

// op returns the i-th operand record.
func (r *taskRec) op(i int) *opRec {
	if i < mainBlockOperands {
		return &r.main[i]
	}
	return &r.spill[i-mainBlockOperands]
}

// trsModule is one task reservation station: an eDRAM block store whose
// controller serializes protocol messages. Task records live in a
// slot-indexed arena (generation-checked) rather than on the heap, so
// steady-state task turnover does not allocate, and a *taskRec stays valid
// while handlers serve deferred allocation queues.
type trsModule struct {
	fe    *Frontend
	index int
	node  int // NoC node (stored as int to match noc.NodeID)
	srv   *sim.Server[trsMsg]

	totalBlocks int
	freeBlocks  int
	sramHeads   int // block addresses staged in the SRAM buffer

	tasks sim.Arena[taskRec] // a TaskID's Slot indexes it

	// consumers lists the consumers registered with each operand, keyed
	// by operandKey, in the ablation mode only (Chaining=false). A list
	// holds only consumers still waiting for data, and forward deletes it
	// when the data arrives, so none outlives its task.
	consumers sim.Table[uint64, []OperandID]

	deferred     sim.FIFO[*taskmodel.Task] // allocation requests awaiting free blocks
	reportedFull bool

	// Stats.
	allocated, freed  uint64
	bytesAllocated    uint64
	bytesUsed         uint64
	sramRefills       uint64
	deferredHighWater int
}

func newTRS(fe *Frontend, index int) *trsModule {
	t := &trsModule{
		fe:          fe,
		index:       index,
		totalBlocks: int(fe.cfg.TRSBytesEach / trsBlockBytes),
	}
	t.freeBlocks = t.totalBlocks
	t.sramHeads = sramFreeListHeads
	t.srv = sim.NewServer(fe.eng, t.handle)
	return t
}

// handle dispatches a message by kind, ordered by rough message frequency.
func (t *trsModule) handle(m trsMsg) sim.Cycle {
	switch m.kind {
	case trsDataReady:
		return t.handleDataReady(m)
	case trsOperandInfo:
		return t.handleOperandInfo(m)
	case trsRegisterConsumer:
		return t.handleRegisterConsumer(m)
	case trsScalar:
		return t.handleScalar(m.op)
	case trsAlloc:
		return t.handleAlloc(m.task)
	default: // trsFinished
		return t.handleFinished(m.op.Task)
	}
}

// blockAllocCost models pulling n block addresses from the SRAM-staged free
// list (1 cycle each), refilling from the eDRAM list node when it runs dry.
func (t *trsModule) blockAllocCost(n int) sim.Cycle {
	cost := sim.Cycle(n) // 1 cycle per block from SRAM
	for i := 0; i < n; i++ {
		if t.sramHeads == 0 {
			cost += edramCycles
			t.sramHeads = sramFreeListHeads
			t.sramRefills++
		}
		t.sramHeads--
	}
	return cost
}

func (t *trsModule) handleAlloc(task *taskmodel.Task) sim.Cycle {
	blocks := blocksForOperands(task.NumOperands())
	if blocks > t.freeBlocks {
		// Defer until a task frees storage; the gateway's in-order issue
		// stage blocks on this task, which is exactly the paper's
		// "task window full" stall.
		t.deferred.Push(task)
		if t.deferred.Len() > t.deferredHighWater {
			t.deferredHighWater = t.deferred.Len()
		}
		return procCycles
	}
	return t.allocate(task, blocks)
}

func (t *trsModule) allocate(task *taskmodel.Task, blocks int) sim.Cycle {
	nops := task.NumOperands()
	t.freeBlocks -= blocks
	slot, rec := t.tasks.Alloc()
	rec.gen++
	rec.id = TaskID{TRS: uint16(t.index), Slot: slot}
	rec.task = task
	rec.blocks = uint8(blocks)
	rec.nops = uint8(nops)
	if spill := nops - mainBlockOperands; spill > 0 {
		if cap(rec.spill) < spill {
			rec.spill = make([]opRec, spill)
		}
		rec.spill = rec.spill[:spill]
	} else {
		rec.spill = rec.spill[:0]
	}
	for i := 0; i < nops; i++ {
		*rec.op(i) = opRec{next: noOperand}
	}
	rec.pendingOps = int8(nops)
	rec.pendingReady = 0
	rec.dispatched = false
	rec.decodedAt = 0
	rec.readyAt = 0
	t.allocated++
	t.bytesAllocated += uint64(blocks * trsBlockBytes)
	t.bytesUsed += uint64(taskRecordBytes(nops))
	t.fe.noteWindowDelta(+1)

	// Reply to the gateway with the slot number.
	t.fe.sendToGW(t.node, gwMsg{
		kind:      gwAllocReply,
		seq:       task.Seq,
		id:        rec.id,
		moreSpace: t.freeBlocks >= blocksForOperands(MaxOperands),
	})
	if t.freeBlocks < blocksForOperands(MaxOperands) {
		t.reportedFull = true
	}
	extra := sim.Cycle(0)
	if nops == 0 {
		// Operand-less tasks are decoded and ready upon allocation.
		rec.decodedAt = t.fe.eng.Now()
		t.fe.noteDecoded(rec.decodedAt)
		extra = t.maybeDispatch(rec)
	}
	// Alloc processing: packet cost + block pulls + one eDRAM write per
	// block to initialize the task record.
	return procCycles + t.blockAllocCost(blocks) +
		sim.Cycle(blocks)*edramCycles + extra
}

// rec returns the live record for id, or nil when the slot was freed or
// reused.
func (t *trsModule) rec(id TaskID, gen uint32, checkGen bool) *taskRec {
	if int(id.Slot) >= t.tasks.Len() {
		return nil
	}
	r := t.tasks.At(id.Slot)
	if r.task == nil {
		return nil
	}
	if checkGen && r.gen != gen {
		return nil
	}
	return r
}

// gen returns the slot's current generation (it survives frees, so the ORT
// can stamp last-user references that may outlive the task).
func (t *trsModule) slotGen(slot uint32) uint32 {
	if int(slot) >= t.tasks.Len() {
		return 0
	}
	return t.tasks.At(slot).gen
}

func (t *trsModule) handleOperandInfo(m trsMsg) sim.Cycle {
	r := t.rec(m.op.Task, 0, false)
	if r == nil {
		panic("trs: operand info for freed slot")
	}
	op := r.op(int(m.op.Index))
	op.dir = m.dir
	op.version = m.version
	op.stored = true
	// Add rather than assign: an OVT output-buffer grant can overtake this
	// message on the ring, and handleDataReady has then already counted it
	// against op.pending and r.pendingReady.
	var need int8
	switch m.dir {
	case taskmodel.In, taskmodel.Out:
		need = 1
	case taskmodel.InOut:
		need = 2
	}
	op.pending += need
	r.pendingReady += need

	cost := procCycles + edramCycles
	if m.hasProducer {
		// Register with the previous user of the version for input data.
		t.fe.sendToTRS(t.node, int(m.producer.Task.TRS), trsMsg{
			kind:     trsRegisterConsumer,
			producer: m.producer,
			prodGen:  m.prodGen,
			op:       m.op,
			version:  m.version,
		})
	}
	if m.immediateReady > 0 {
		op.pending -= m.immediateReady
		r.pendingReady -= m.immediateReady
		op.buf = m.buf
		op.dataDone = true
	}
	t.noteOperandStored(r)
	cost += t.maybeDispatch(r)
	return cost
}

func (t *trsModule) handleScalar(id OperandID) sim.Cycle {
	r := t.rec(id.Task, 0, false)
	if r == nil {
		panic("trs: scalar for freed slot")
	}
	op := r.op(int(id.Index))
	op.dir = taskmodel.Scalar
	op.stored = true
	op.dataDone = true
	t.noteOperandStored(r)
	cost := procCycles + edramCycles
	cost += t.maybeDispatch(r)
	return cost
}

func (t *trsModule) noteOperandStored(r *taskRec) {
	r.pendingOps--
	if r.pendingOps == 0 {
		r.decodedAt = t.fe.eng.Now()
		t.fe.noteDecoded(r.decodedAt)
	}
}

// handleRegisterConsumer registers the consumer m.op with the producer
// m.producer.
func (t *trsModule) handleRegisterConsumer(m trsMsg) sim.Cycle {
	cost := procCycles + 2*edramCycles // read + link write
	consumer := m.op
	r := t.rec(m.producer.Task, m.prodGen, true)
	if r == nil {
		// The user already retired; its data was produced and written
		// back. Resolve the buffer through the version record.
		t.fe.sendToOVT(t.node, int(m.version.OVT), ovtMsg{kind: ovtQueryBuf, v: m.version, op: consumer})
		return cost
	}
	op := r.op(int(m.producer.Index))
	if op.dir == taskmodel.In && op.dataDone {
		// Data already flowed through this reader: forward directly.
		t.sendDataReady(int(consumer.Task.TRS), consumer, op.buf, false)
		return cost
	}
	if t.fe.cfg.Chaining {
		op.next = consumer
		return cost
	}
	k := operandKey(m.producer)
	if c := t.consumers.Get(k); c != nil {
		*c = append(*c, consumer)
	} else {
		t.consumers.Put(k, []OperandID{consumer})
	}
	return cost
}

func (t *trsModule) handleDataReady(m trsMsg) sim.Cycle {
	r := t.rec(m.op.Task, 0, false)
	if r == nil {
		panic("trs: data ready for freed slot")
	}
	op := r.op(int(m.op.Index))
	cost := procCycles + edramCycles
	// Before the operand info lands (op.stored false) a data-ready is an
	// early arrival: it drives op.pending negative and handleOperandInfo
	// nets it. Once stored, nothing pending means a true duplicate.
	if op.stored && op.pending <= 0 {
		panic("trs: duplicate data ready")
	}
	op.pending--
	r.pendingReady--
	if !m.output {
		// Input data arrived: record its location and forward along the
		// consumer chain immediately (Figure 10).
		op.buf = m.buf
		op.dataDone = true
		if op.dir == taskmodel.In {
			t.forward(m.op, op, m.buf)
		}
	} else if op.buf == 0 || op.dir == taskmodel.Out {
		// Output buffer granted by the OVT (rename buffer or in-place
		// buffer once the previous version died).
		op.buf = m.buf
	}
	cost += t.maybeDispatch(r)
	return cost
}

// sendDataReady ships one readiness notification to a consumer TRS.
func (t *trsModule) sendDataReady(trsIdx int, op OperandID, buf uint64, output bool) {
	t.fe.sendToTRS(t.node, trsIdx, trsMsg{kind: trsDataReady, op: op, buf: buf, output: output})
}

// forward passes an input-data-ready notification to the next consumer in
// the chain (or to every consumer registered with operand id in the
// ablation mode).
func (t *trsModule) forward(id OperandID, op *opRec, buf uint64) {
	if t.fe.cfg.Chaining {
		if op.next != noOperand {
			t.sendDataReady(int(op.next.Task.TRS), op.next, buf, false)
		}
		return
	}
	k := operandKey(id)
	if c := t.consumers.Get(k); c != nil {
		for _, consumer := range *c {
			t.sendDataReady(int(consumer.Task.TRS), consumer, buf, false)
		}
		t.consumers.Delete(k)
	}
}

// operandKey packs an operand's slot and index into a consumers key (the
// TRS index is the station's own).
func operandKey(id OperandID) uint64 { return uint64(id.Task.Slot)<<8 | uint64(id.Index) }

// maybeDispatch sends the task to the ready queue once fully decoded and all
// operands are ready. It returns the extra processing cost.
func (t *trsModule) maybeDispatch(r *taskRec) sim.Cycle {
	if r.dispatched || r.pendingOps > 0 || r.pendingReady > 0 {
		return 0
	}
	r.dispatched = true
	r.readyAt = t.fe.eng.Now()
	rt := t.fe.getReadyTask()
	nops := int(r.nops)
	ops := rt.Operands
	if cap(ops) < nops {
		ops = make([]ResolvedOperand, nops)
	} else {
		ops = ops[:nops]
	}
	for i := 0; i < nops; i++ {
		op := r.op(i)
		ro := ResolvedOperand{Dir: op.dir}
		if op.dir != taskmodel.Scalar { // a scalar has no Base, Buf or Size
			to := r.task.Operands[i]
			ro.Base, ro.Buf, ro.Size = to.Base, op.buf, to.Size
		}
		ops[i] = ro
	}
	rt.ID = r.id
	rt.Task = r.task
	rt.Operands = ops
	rt.DecodedAt = r.decodedAt
	rt.ReadyAt = r.readyAt
	t.fe.dispatchReady(t.node, rt)
	return edramCycles // read the record out for dispatch
}

func (t *trsModule) handleFinished(id TaskID) sim.Cycle {
	r := t.rec(id, 0, false)
	if r == nil {
		panic("trs: finish for freed slot")
	}
	// Traverse all operands: notify consumers, release version uses.
	nops := int(r.nops)
	cost := procCycles * sim.Cycle(max(1, nops))
	cost += sim.Cycle(r.blocks) * edramCycles
	for i := 0; i < nops; i++ {
		op := r.op(i)
		if op.dir == taskmodel.Scalar {
			continue
		}
		if op.dir.Writes() {
			// The produced data is now final: release it to consumers.
			op.dataDone = true
			t.forward(OperandID{Task: id, Index: uint8(i)}, op, op.buf)
		}
		t.fe.sendToOVT(t.node, int(op.version.OVT), ovtMsg{kind: ovtDecUse, v: op.version})
	}
	// Free the task storage (the slot keeps its generation counter).
	blocks := int(r.blocks)
	r.task = nil
	t.tasks.Free(id.Slot)
	t.freeBlocks += blocks
	t.freed++
	t.fe.noteWindowDelta(-1)
	t.fe.noteTaskRetired(r)

	// Serve deferred allocations in order.
	for t.deferred.Len() > 0 {
		d := *t.deferred.Front()
		blocks := blocksForOperands(d.NumOperands())
		if blocks > t.freeBlocks {
			break
		}
		t.deferred.Pop()
		cost += t.allocate(d, blocks)
	}
	if t.reportedFull && t.deferred.Len() == 0 && t.freeBlocks >= blocksForOperands(MaxOperands) {
		t.reportedFull = false
		t.fe.sendToGW(t.node, gwMsg{kind: gwSpaceFreed, src: int32(t.index)})
	}
	return cost
}

// occupancy returns blocks in use.
func (t *trsModule) occupancy() int { return t.totalBlocks - t.freeBlocks }
