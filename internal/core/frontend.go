package core

import (
	"math"

	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/stats"
	"tasksuperscalar/internal/taskmodel"
)

// Frontend is the assembled task superscalar pipeline: one gateway, NumTRS
// task reservation stations, and NumORT object renaming tables, each paired
// with an object versioning table. All modules attach to the global ring.
type Frontend struct {
	eng *sim.Engine
	net *noc.Network
	cfg Config

	gw  *gateway
	trs []*trsModule
	ort []*ortModule
	ovt []*ovtModule

	dispatcher Dispatcher
	copyEngine CopyEngine

	// ortMask is len(ort)-1 when the ORT count is a power of 2 (mask
	// instead of mod on the per-operand routing path), else -1.
	ortMask int

	readyEvents sim.Pool[readyEvent]
	// readyTasks recycles ReadyTask records (and their resolved-operand
	// slices) once the backend releases them, so dispatch allocates
	// nothing in steady state.
	readyTasks sim.Pool[ReadyTask]

	stallState []bool

	// Stats.
	window      stats.Counter
	decoded     uint64
	firstDecode sim.Cycle
	lastDecode  sim.Cycle
	retired     uint64

	// Decode-to-ready latency, kept as running aggregates (not a full
	// sample) so frontend memory stays independent of the task count.
	readyLagSum uint64
	readyLagN   uint64
	readyLagMax uint64
}

// New builds a frontend and attaches its modules to the network (call
// before net.Build()). copyEngine performs rename-buffer copy-back; pass
// NullCopyEngine when no memory system is modeled.
func New(eng *sim.Engine, net *noc.Network, cfg Config, copyEngine CopyEngine) *Frontend {
	if cfg.NumTRS < 1 || cfg.NumORT < 1 {
		panic("core: need at least one TRS and one ORT")
	}
	fe := &Frontend{
		eng:        eng,
		net:        net,
		cfg:        cfg,
		copyEngine: copyEngine,
		stallState: make([]bool, cfg.NumORT*2),
	}
	fe.gw = newGateway(fe)
	fe.gw.node = int(net.AddGlobalNode("gateway"))
	for i := 0; i < cfg.NumTRS; i++ {
		t := newTRS(fe, i)
		t.node = int(net.AddGlobalNode("trs"))
		fe.trs = append(fe.trs, t)
	}
	for i := 0; i < cfg.NumORT; i++ {
		o := newORT(fe, i)
		o.node = int(net.AddGlobalNode("ort"))
		fe.ort = append(fe.ort, o)
		v := newOVT(fe, i)
		v.node = int(net.AddGlobalNode("ovt"))
		fe.ovt = append(fe.ovt, v)
	}
	fe.ortMask = -1
	if n := len(fe.ort); n&(n-1) == 0 {
		fe.ortMask = n - 1
	}
	return fe
}

// SetDispatcher wires the execution backend.
func (fe *Frontend) SetDispatcher(d Dispatcher) { fe.dispatcher = d }

// Config returns the frontend configuration.
func (fe *Frontend) Config() Config { return fe.cfg }

// GatewayNode is the gateway's network attachment (generators send here).
func (fe *Frontend) GatewayNode() noc.NodeID { return noc.NodeID(fe.gw.node) }

// NullCopyEngine discards copy-back requests, completing them instantly.
type NullCopyEngine struct{ eng *sim.Engine }

// NewNullCopyEngine returns a copy engine for frontend-only simulations.
func NewNullCopyEngine(eng *sim.Engine) *NullCopyEngine { return &NullCopyEngine{eng: eng} }

// Copy implements CopyEngine.
func (n *NullCopyEngine) Copy(src, dst uint64, size uint32, done sim.Event) {
	n.eng.ScheduleEvent(1, done)
}

// --- ReadyTask recycling ---

// getReadyTask takes a dispatch record from the frontend's pool.
func (fe *Frontend) getReadyTask() *ReadyTask {
	rt := fe.readyTasks.Get()
	rt.owner = fe
	return rt
}

// PutReadyTask returns a released record; the operand slice keeps its
// capacity for the next dispatch. It implements ReadyTaskPool.
func (fe *Frontend) PutReadyTask(rt *ReadyTask) {
	rt.Task = nil
	rt.Operands = rt.Operands[:0]
	rt.Depth = 0
	fe.readyTasks.Put(rt)
}

// --- routing helpers ---

// ortFor hashes an operand base address to an ORT index; hashing (rather
// than using address bits directly) avoids load imbalance from varying
// object sizes (§IV.B.1).
func (fe *Frontend) ortFor(base uint64) int {
	h := base >> 6
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 32
	if fe.ortMask >= 0 {
		return int(h & uint64(fe.ortMask)) // identical to % for power-of-2 counts
	}
	return int(h % uint64(len(fe.ort)))
}

func (fe *Frontend) trsGen(id TaskID) uint32 {
	return fe.trs[id.TRS].slotGen(id.Slot)
}

// --- message transport (asynchronous point-to-point over the NoC) ---
//
// Messages travel by value; each send completes with a pooled delivery
// event of the destination module's server, so no closure and no boxing
// happens per message.

func (fe *Frontend) sendToTRS(fromNode, trsIdx int, m trsMsg) {
	t := fe.trs[trsIdx]
	fe.net.Send(noc.NodeID(fromNode), noc.NodeID(t.node), CtrlBytes, t.srv.Deliver(m))
}

func (fe *Frontend) sendToORT(fromNode, ortIdx int, m ortMsg) {
	o := fe.ort[ortIdx]
	fe.net.Send(noc.NodeID(fromNode), noc.NodeID(o.node), CtrlBytes, o.srv.Deliver(m))
}

func (fe *Frontend) sendToOVT(fromNode, ovtIdx int, m ovtMsg) {
	o := fe.ovt[ovtIdx]
	fe.net.Send(noc.NodeID(fromNode), noc.NodeID(o.node), CtrlBytes, o.srv.Deliver(m))
}

func (fe *Frontend) sendToGW(fromNode int, m gwMsg) {
	fe.net.Send(noc.NodeID(fromNode), noc.NodeID(fe.gw.node), CtrlBytes, fe.gw.srv.Deliver(m))
}

// stall source encoding: ORT i and OVT i each get a slot in the gateway's
// stall bitmap.
func stallSrcORT(i int) int { return 2 * i }
func stallSrcOVT(i int) int { return 2*i + 1 }

// setStall asserts or clears gateway backpressure from a frontend module,
// sending a message only on state changes.
func (fe *Frontend) setStall(src int, on bool) {
	if fe.stallState[src] == on {
		return
	}
	fe.stallState[src] = on
	var fromNode int
	if src%2 == 0 {
		fromNode = fe.ort[src/2].node
	} else {
		fromNode = fe.ovt[src/2].node
	}
	fe.sendToGW(fromNode, gwMsg{kind: gwStall, src: int32(src), stalled: on})
}

// readyEvent carries one decoded-and-ready task to the dispatcher; pooled
// so the per-task dispatch costs no allocation.
type readyEvent struct {
	fe *Frontend
	rt *ReadyTask
}

func (ev *readyEvent) Fire() {
	fe, rt := ev.fe, ev.rt
	ev.rt = nil
	fe.readyEvents.Put(ev)
	fe.dispatcher.TaskReady(rt)
}

// dispatchReady ships a ready task to the backend's queuing system.
func (fe *Frontend) dispatchReady(fromNode int, rt *ReadyTask) {
	size := CtrlBytes + 16*uint32(len(rt.Operands))
	lag := uint64(rt.ReadyAt - rt.DecodedAt)
	fe.readyLagSum += lag
	fe.readyLagN++
	if lag > fe.readyLagMax {
		fe.readyLagMax = lag
	}
	ev := fe.readyEvents.Get()
	ev.fe, ev.rt = fe, rt
	fe.net.Send(noc.NodeID(fromNode), fe.dispatcher.Node(), size, ev)
}

// TaskFinished is called by the backend (from the worker's node) when a task
// completes; the TRS then walks the operands, notifies consumers, and frees
// the task's storage.
func (fe *Frontend) TaskFinished(fromNode noc.NodeID, id TaskID) {
	t := fe.trs[id.TRS]
	fe.net.Send(fromNode, noc.NodeID(t.node), CtrlBytes, t.srv.Deliver(trsMsg{kind: trsFinished, op: OperandID{Task: id}}))
}

// --- bookkeeping ---

func (fe *Frontend) noteWindowDelta(d int64) {
	fe.window.Inc(fe.eng.Now(), d)
}

func (fe *Frontend) noteDecoded(at sim.Cycle) {
	if fe.decoded == 0 {
		fe.firstDecode = at
	}
	fe.lastDecode = at
	fe.decoded++
}

func (fe *Frontend) noteTaskRetired(r *taskRec) {
	fe.retired++
}

// --- statistics ---

// FrontendStats summarizes a run of the pipeline frontend.
type FrontendStats struct {
	Decoded uint64
	Retired uint64
	// DecodeRate is the average time between successive additions to the
	// task graph, in cycles per task (§VI.A).
	DecodeRate float64

	WindowMax     int64
	WindowTimeAvg float64

	// TRS storage behaviour.
	TRSBytesAllocated uint64
	TRSBytesUsed      uint64
	// InternalFragmentation = 1 - used/allocated (§IV.B.2 reports ~20%).
	InternalFragmentation float64
	TRSDeferredHighWater  int

	// ORT/OVT behaviour.
	ORTStallEvents  uint64
	OVTStallEvents  uint64
	ORTMaxOccupied  int
	OVTMaxLive      int
	Renames         uint64
	CopyBacks       uint64
	InPlaceUnblocks uint64

	// Consumer chains: fraction with at most 2 links, the 95th
	// percentile, and the maximum (recorded only when Config.RecordChains).
	ChainFracAtMost2 float64
	ChainP95         float64
	ChainMax         int

	// Decode-to-ready latency aggregates, in cycles.
	ReadyLagAvg float64
	ReadyLagMax uint64

	GatewayAdmitted  uint64
	GatewayIssuedOps uint64

	// Per-module-type busy fractions over the run (bottleneck analysis
	// for the Figure 12/13 sweeps).
	GatewayUtil float64
	TRSUtil     float64 // busiest TRS
	ORTUtil     float64 // busiest ORT
	OVTUtil     float64 // busiest OVT
}

// Stats collects statistics across all modules. end is the cycle at which
// the run finished (for time-weighted averages).
func (fe *Frontend) Stats(end sim.Cycle) FrontendStats {
	s := FrontendStats{
		Decoded:          fe.decoded,
		Retired:          fe.retired,
		WindowMax:        fe.window.Max(),
		WindowTimeAvg:    fe.window.TimeAvg(end),
		GatewayAdmitted:  fe.gw.admitted,
		GatewayIssuedOps: fe.gw.issuedOps,
	}
	if fe.decoded > 1 {
		s.DecodeRate = float64(fe.lastDecode-fe.firstDecode) / float64(fe.decoded-1)
	}
	if end > 0 {
		s.GatewayUtil = float64(fe.gw.srv.BusyCycles()) / float64(end)
		for _, t := range fe.trs {
			if u := float64(t.srv.BusyCycles()) / float64(end); u > s.TRSUtil {
				s.TRSUtil = u
			}
		}
		for _, o := range fe.ort {
			if u := float64(o.srv.BusyCycles()) / float64(end); u > s.ORTUtil {
				s.ORTUtil = u
			}
		}
		for _, v := range fe.ovt {
			if u := float64(v.srv.BusyCycles()) / float64(end); u > s.OVTUtil {
				s.OVTUtil = u
			}
		}
	}
	for _, t := range fe.trs {
		s.TRSBytesAllocated += t.bytesAllocated
		s.TRSBytesUsed += t.bytesUsed
		if t.deferredHighWater > s.TRSDeferredHighWater {
			s.TRSDeferredHighWater = t.deferredHighWater
		}
	}
	if s.TRSBytesAllocated > 0 {
		s.InternalFragmentation = 1 - float64(s.TRSBytesUsed)/float64(s.TRSBytesAllocated)
	}
	var chains []uint64 // dead versions by consumer count, over every OVT
	for _, o := range fe.ort {
		s.ORTStallEvents += o.stallEvents
		if o.maxOccupied > s.ORTMaxOccupied {
			s.ORTMaxOccupied = o.maxOccupied
		}
	}
	for _, v := range fe.ovt {
		s.OVTStallEvents += v.stallEvents
		s.Renames += v.renames
		s.CopyBacks += v.copyBacks
		s.InPlaceUnblocks += v.inPlaceUnblocks
		if v.maxLive > s.OVTMaxLive {
			s.OVTMaxLive = v.maxLive
		}
		for n, c := range v.chainHist {
			if n == len(chains) {
				chains = append(chains, 0)
			}
			chains[n] += c
		}
	}
	s.ChainFracAtMost2, s.ChainP95, s.ChainMax = chainStats(chains)
	if fe.readyLagN > 0 {
		s.ReadyLagAvg = float64(fe.readyLagSum) / float64(fe.readyLagN)
		s.ReadyLagMax = fe.readyLagMax
	}
	return s
}

// chainStats summarizes a histogram of chain lengths (hist[n] versions had n
// consumers) exactly as a stats.Sample of the lengths would: the fraction
// of chains at most 2 long, the 95th percentile, and the longest chain.
func chainStats(hist []uint64) (atMost2, p95 float64, longest int) {
	var n, short uint64
	for l, c := range hist {
		n += c
		if l <= 2 {
			short += c
		}
		if c > 0 {
			longest = l
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	atMost2 = float64(short) / float64(n)
	// The k-th smallest length, counting from 0.
	at := func(k uint64) float64 {
		l := 0
		for k >= hist[l] {
			k -= hist[l]
			l++
		}
		return float64(l)
	}
	// stats.Sample.Percentile's interpolation between the ranks around
	// p/100·(n-1), operation for operation, so the result is bit-identical.
	p := 95.0
	rank := p / 100 * float64(n-1)
	lo := uint64(math.Floor(rank))
	hi := uint64(math.Ceil(rank))
	if lo == hi {
		return atMost2, at(lo), longest
	}
	frac := rank - float64(lo)
	return atMost2, at(lo)*(1-frac) + at(hi)*frac, longest
}

// WindowOccupancy returns the current number of in-flight tasks.
func (fe *Frontend) WindowOccupancy() int64 { return fe.window.Cur() }

// Generator models the task-generating thread: it walks a task stream,
// paying a per-task packing cost, and writes tasks into the gateway's
// buffer, blocking when the buffer (and transitively the task window) is
// full — exactly the decoupled submission model of §III.C.
type Generator struct {
	fe     *Frontend
	node   noc.NodeID
	stream taskmodel.Stream

	// cur is the task being packed or awaiting buffer space; submitFn is
	// built once so the per-task schedule/await path does not allocate.
	cur      *taskmodel.Task
	submitFn func()

	produced uint64
	done     bool
}

// NewGenerator creates a generator that injects tasks from node (typically
// a core on a local ring).
func NewGenerator(fe *Frontend, node noc.NodeID, stream taskmodel.Stream) *Generator {
	g := &Generator{fe: fe, node: node, stream: stream}
	g.submitFn = g.trySubmit
	return g
}

// Start begins producing tasks.
func (g *Generator) Start() { g.produce() }

// Produced returns the number of tasks submitted so far.
func (g *Generator) Produced() uint64 { return g.produced }

// Done reports whether the stream is exhausted.
func (g *Generator) Done() bool { return g.done }

func (g *Generator) produce() {
	t := g.stream.Next()
	if t == nil {
		g.done = true
		return
	}
	if t.NumOperands() > MaxOperands {
		panic("generator: task exceeds the 19-operand limit")
	}
	g.cur = t
	cost := GenBaseCycles + GenPerOpCycles*sim.Cycle(t.NumOperands())
	g.fe.eng.Schedule(cost, g.submitFn)
}

func (g *Generator) trySubmit() {
	t := g.cur
	gw := g.fe.gw
	if !gw.RoomFor(t) {
		gw.AwaitRoom(g.submitFn)
		return
	}
	gw.Reserve(t)
	g.produced++
	g.cur = nil
	g.fe.net.Send(g.node, g.fe.GatewayNode(), taskBytes(t), gw.arrival(t))
	g.produce()
}
