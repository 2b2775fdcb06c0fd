package core

import (
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// pendingTask is a task staged in the gateway's incoming buffer. Records
// recycle through the gateway's pool (one allocation per window-occupancy
// high-water mark, not per task). A record is also its task's arrival: the
// generator's send completes with it, and its Fire admits the task.
type pendingTask struct {
	g     *gateway
	task  *taskmodel.Task
	bytes uint32

	allocSent  bool
	allocDone  bool
	id         TaskID
	nextIssue  int // next operand index to distribute
	issuesDone bool
}

// gateway is the pipeline entry point: it buffers incoming tasks (1 KB),
// allocates TRS storage, and distributes operands to the ORTs in task order
// (the in-order decode requirement of §III). The non-blocking protocol lets
// it pipeline allocation requests while older tasks are still being issued.
type gateway struct {
	fe   *Frontend
	node int
	srv  *sim.Server[gwMsg]

	queue   sim.FIFO[*pendingTask]
	pending sim.Pool[pendingTask]
	bufUsed uint32
	waiters []func() // generators blocked on buffer space
	drain   []func() // scratch for waking waiters without allocating
	// stalls is a bitset over the frontend's stall sources (2 per ORT/OVT
	// pair — small dense indices, so a word array beats a map).
	stalls   []uint64
	nstalled int

	// allocSent counts queued tasks whose allocation request has been
	// sent. Requests go out strictly in queue order and tasks retire from
	// the front in order, so the queue is always a sent prefix followed
	// by an unsent suffix: the next candidate is queue.At(allocSent), and
	// a reply's task is always inside the prefix — no scans needed.
	allocSent int

	freeTRS []bool
	rrNext  int
	anyFree bool

	// Stats.
	admitted  uint64
	issuedOps uint64
}

func newGateway(fe *Frontend) *gateway {
	g := &gateway{
		fe:      fe,
		stalls:  make([]uint64, (2*fe.cfg.NumORT+63)/64),
		freeTRS: make([]bool, fe.cfg.NumTRS),
	}
	for i := range g.freeTRS {
		g.freeTRS[i] = true
	}
	g.anyFree = true
	g.srv = sim.NewServer(fe.eng, g.handle)
	return g
}

// taskBytes is the space a task occupies in the gateway buffer: kernel
// pointer and globals plus one descriptor per operand.
func taskBytes(t *taskmodel.Task) uint32 {
	return 16 + 8*uint32(t.NumOperands())
}

// RoomFor reports whether the incoming buffer can accept the task within
// the byte budget of the hardware buffer.
func (g *gateway) RoomFor(t *taskmodel.Task) bool {
	return g.bufUsed+taskBytes(t) <= g.fe.cfg.GatewayBufBytes
}

// Reserve claims buffer space for a task about to be sent (the generator
// reserves before injecting so in-flight tasks never overflow the buffer).
func (g *gateway) Reserve(t *taskmodel.Task) {
	g.bufUsed += taskBytes(t)
}

// arrival returns the staging record of a task about to be sent; it admits
// the task when it fires, so it is the send's completion. Space was already
// reserved by Reserve.
func (g *gateway) arrival(t *taskmodel.Task) *pendingTask {
	p := g.pending.Get()
	*p = pendingTask{g: g, task: t, bytes: taskBytes(t)}
	return p
}

// Fire implements sim.Event: the task arrives in the gateway's buffer.
func (p *pendingTask) Fire() { p.g.admit(p) }

// Enqueue stages a task directly, as if its send arrived now; space was
// already reserved by Reserve.
func (g *gateway) Enqueue(t *taskmodel.Task) { g.admit(g.arrival(t)) }

// admit stages an arrived task and wakes the work loop.
func (g *gateway) admit(p *pendingTask) {
	g.queue.Push(p)
	g.admitted++
	g.kick()
}

// AwaitRoom registers a callback for when buffer space frees.
func (g *gateway) AwaitRoom(fn func()) { g.waiters = append(g.waiters, fn) }

// kick wakes the gateway's work loop.
func (g *gateway) kick() { g.srv.Submit(gwMsg{kind: gwKick}) }

func (g *gateway) handle(m gwMsg) sim.Cycle {
	switch m.kind {
	case gwKick:
		return g.step()
	case gwAllocReply:
		return g.handleAllocReply(m)
	case gwSpaceFreed:
		g.freeTRS[m.src] = true
		g.anyFree = true
		g.kick()
		return procCycles
	default: // gwStall
		return g.handleStall(m)
	}
}

func (g *gateway) handleStall(m gwMsg) sim.Cycle {
	word, bit := m.src/64, uint64(1)<<(m.src%64)
	was := g.stalls[word]&bit != 0
	if m.stalled && !was {
		g.stalls[word] |= bit
		g.nstalled++
	} else if !m.stalled && was {
		g.stalls[word] &^= bit
		g.nstalled--
		g.kick()
	}
	return 0
}

// step performs one unit of gateway work: issuing the next operand of the
// oldest allocated task, or sending an allocation request for a newer task.
// Operand issue is strictly in task order; allocation requests pipeline
// ahead of it.
func (g *gateway) step() sim.Cycle {
	var cost sim.Cycle
	progress := false

	// 1. Issue the head task's operands, in order, unless stalled.
	if g.queue.Len() > 0 && g.nstalled == 0 {
		head := *g.queue.Front()
		if head.allocDone {
			cost += g.issueOne(head)
			progress = true
			if head.issuesDone {
				g.retire(head)
			}
		}
	}

	// 2. Pipeline one allocation request for the next unallocated task.
	if g.allocSent < g.queue.Len() {
		if trs := g.pickTRS(); trs >= 0 {
			p := *g.queue.At(g.allocSent)
			p.allocSent = true
			g.allocSent++
			g.fe.sendToTRS(g.node, trs, trsMsg{kind: trsAlloc, task: p.task})
			cost += procCycles
			progress = true
		}
	}

	if progress {
		g.kick()
	}
	return cost
}

// findSeq returns the pending task an alloc reply refers to. A task's
// position is not stable, so the reply names it by its sequence number.
func (g *gateway) findSeq(seq uint64) *pendingTask {
	// Only the sent prefix can have a reply outstanding.
	for i := 0; i < g.allocSent; i++ {
		if p := *g.queue.At(i); p.task.Seq == seq {
			return p
		}
	}
	return nil
}

// pickTRS selects the next TRS with free space, round-robin.
func (g *gateway) pickTRS() int {
	if !g.anyFree {
		return -1
	}
	n := len(g.freeTRS)
	for i := 0; i < n; i++ {
		idx := (g.rrNext + i) % n
		if g.freeTRS[idx] {
			g.rrNext = (idx + 1) % n
			return idx
		}
	}
	g.anyFree = false
	return -1
}

func (g *gateway) handleAllocReply(m gwMsg) sim.Cycle {
	p := g.findSeq(m.seq)
	if p == nil {
		panic("gateway: alloc reply for unknown task")
	}
	p.allocDone = true
	p.id = m.id
	if !m.moreSpace {
		g.freeTRS[m.id.TRS] = false
		g.anyFree = false
		for _, f := range g.freeTRS {
			if f {
				g.anyFree = true
				break
			}
		}
	}
	g.kick()
	return procCycles
}

// issueOne distributes the next operand of the head task: memory operands go
// to the ORT selected by the hashed base address, scalars directly to the
// TRS. Address hashing is pipelined and adds no latency (§IV.B.1).
func (g *gateway) issueOne(p *pendingTask) sim.Cycle {
	ops := p.task.Operands
	if p.nextIssue >= len(ops) {
		p.issuesDone = true
		return 0
	}
	i := p.nextIssue
	p.nextIssue++
	if p.nextIssue >= len(ops) {
		p.issuesDone = true
	}
	op := ops[i]
	oid := OperandID{Task: p.id, Index: uint8(i)}
	if op.Dir == taskmodel.Scalar {
		g.fe.sendToTRS(g.node, int(p.id.TRS), trsMsg{kind: trsScalar, op: oid})
	} else {
		g.fe.sendToORT(g.node, g.fe.ortFor(uint64(op.Base)), ortMsg{
			kind: ortDecode,
			op:   oid,
			base: uint64(op.Base),
			size: op.Size,
			dir:  op.Dir,
		})
	}
	g.issuedOps++
	return procCycles
}

// retire removes a fully issued task from the buffer and wakes blocked
// generators.
func (g *gateway) retire(p *pendingTask) {
	if g.queue.Len() == 0 || *g.queue.Front() != p {
		panic("gateway: retiring non-head task")
	}
	g.queue.Pop()
	g.allocSent-- // the head is always inside the sent prefix (allocDone)
	g.bufUsed -= p.bytes
	*p = pendingTask{}
	g.pending.Put(p)
	// Wake blocked generators; a still-blocked generator re-registers
	// itself, so drain a snapshot rather than the live list (the two
	// slices swap roles so neither wake path allocates).
	g.waiters, g.drain = g.drain[:0], g.waiters
	for _, w := range g.drain {
		w()
	}
}
