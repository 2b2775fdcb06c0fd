package core

import (
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// pendingTask is a task staged in the gateway's incoming buffer. Records
// recycle through the gateway's pool (one allocation per window-occupancy
// high-water mark, not per task).
type pendingTask struct {
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
	srv  *sim.Server[any]

	queue   sim.FIFO[*pendingTask]
	pending sim.Pool[pendingTask]
	enqSink sim.Sink // delivery target for generator task injection
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
	g.srv = sim.NewServer[any](fe.eng, "gateway", g.handle)
	g.enqSink = enqueueSink{g}
	return g
}

// enqueueSink adapts task injection to the NoC's sink-based delivery: the
// generator's message payload is the task pointer itself.
type enqueueSink struct{ g *gateway }

func (s enqueueSink) Submit(m any) { s.g.Enqueue(m.(*taskmodel.Task)) }

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

// Enqueue stages an arriving task (called at NoC delivery time); space was
// already reserved by Reserve.
func (g *gateway) Enqueue(t *taskmodel.Task) {
	p := g.pending.Get()
	*p = pendingTask{task: t, bytes: taskBytes(t)}
	g.queue.Push(p)
	g.admitted++
	g.srv.Submit(gwKickMsg{})
}

// AwaitRoom registers a callback for when buffer space frees.
func (g *gateway) AwaitRoom(fn func()) { g.waiters = append(g.waiters, fn) }

// gwKickMsg wakes the gateway's work loop.
type gwKickMsg struct{}

func (g *gateway) handle(m any) sim.Cycle {
	switch msg := m.(type) {
	case gwKickMsg:
		return g.step()
	case *gwAllocReplyMsg:
		v := *msg
		g.fe.pools.allocReply.Put(msg)
		return g.handleAllocReply(v)
	case *gwSpaceFreedMsg:
		trs := msg.trs
		g.fe.pools.spaceFreed.Put(msg)
		g.freeTRS[trs] = true
		g.anyFree = true
		g.srv.Submit(gwKickMsg{})
		return procCycles
	case *gwStallMsg:
		v := *msg
		g.fe.pools.stall.Put(msg)
		return g.handleStall(v)
	default:
		panic("gateway: unknown message")
	}
}

func (g *gateway) handleStall(m gwStallMsg) sim.Cycle {
	word, bit := m.src/64, uint64(1)<<(m.src%64)
	was := g.stalls[word]&bit != 0
	if m.stalled && !was {
		g.stalls[word] |= bit
		g.nstalled++
	} else if !m.stalled && was {
		g.stalls[word] &^= bit
		g.nstalled--
		g.srv.Submit(gwKickMsg{})
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
			am := g.fe.pools.alloc.Get()
			*am = trsAllocMsg{task: p.task, gwRef: g.refOf(p)}
			g.fe.sendToTRSFromGW(am, trs)
			cost += procCycles
			progress = true
		}
	}

	if progress {
		g.srv.Submit(gwKickMsg{})
	}
	return cost
}

// refOf returns a stable reference for the pending task (its position is
// not stable, so use the task's sequence number; the alloc reply echoes it).
func (g *gateway) refOf(p *pendingTask) int { return int(p.task.Seq) }

func (g *gateway) findRef(ref int) *pendingTask {
	// Only the sent prefix can have a reply outstanding.
	for i := 0; i < g.allocSent; i++ {
		if p := *g.queue.At(i); int(p.task.Seq) == ref {
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

func (g *gateway) handleAllocReply(m gwAllocReplyMsg) sim.Cycle {
	p := g.findRef(m.gwRef)
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
	g.srv.Submit(gwKickMsg{})
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
		sm := g.fe.pools.scalar.Get()
		*sm = trsScalarMsg{op: oid}
		g.fe.sendToTRSFromGW(sm, int(p.id.TRS))
	} else {
		ort := g.fe.ortFor(uint64(op.Base))
		dm := g.fe.pools.decode.Get()
		*dm = ortDecodeMsg{
			op:   oid,
			base: uint64(op.Base),
			size: op.Size,
			dir:  op.Dir,
		}
		g.fe.sendToORTFromGW(dm, ort)
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
