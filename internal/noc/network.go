package noc

import (
	"fmt"

	"tasksuperscalar/internal/sim"
)

// NodeID identifies an endpoint attached to the network.
type NodeID int

// nodeKind distinguishes where a node lives.
type nodeKind uint8

const (
	kindCore   nodeKind = iota // on a local processor ring
	kindGlobal                 // directly on the global ring (L2, MC, frontend)
)

type node struct {
	kind       nodeKind
	name       string
	localRing  int // for cores
	localStop  int // stop on the local ring
	globalStop int // stop on the global ring (bridge stop for cores)
}

// coresPerRing is the local-ring arity (Table II: 8 cores per ring).
const coresPerRing = 8

// Network is the two-level ring fabric: local 8-core processor rings whose
// bridge stops sit on a global ring shared with L2 banks, memory controllers
// and the frontend modules.
type Network struct {
	eng    *sim.Engine
	cfg    Config
	global *Ring
	locals []*Ring
	nodes  []node

	coreCount int
	// pending global stops are allocated before Build.
	built        bool
	globalOrder  []NodeID // global-resident nodes in attach order
	bridgeStops  []int    // global stop of each local ring's bridge
	messages     uint64
	totalLatency sim.Cycle

	// hops recycles multi-hop relay events; bridged sends reuse them
	// instead of nesting closures.
	hops sim.Pool[hopEvent]
}

// NewNetwork creates a network; attach nodes with AddCore / AddGlobalNode,
// then call Build before sending.
func NewNetwork(eng *sim.Engine, cfg Config) *Network {
	return &Network{eng: eng, cfg: cfg}
}

// AddCore attaches a core; cores fill local rings in order, 8 per ring.
func (n *Network) AddCore(name string) NodeID {
	if n.built {
		panic("noc: AddCore after Build")
	}
	id := NodeID(len(n.nodes))
	ring := n.coreCount / coresPerRing
	stop := n.coreCount % coresPerRing
	n.coreCount++
	n.nodes = append(n.nodes, node{kind: kindCore, name: name, localRing: ring, localStop: stop})
	return id
}

// AddGlobalNode attaches a node directly to the global ring (an L2 bank, a
// memory controller, or a frontend module).
func (n *Network) AddGlobalNode(name string) NodeID {
	if n.built {
		panic("noc: AddGlobalNode after Build")
	}
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, node{kind: kindGlobal, name: name})
	n.globalOrder = append(n.globalOrder, id)
	return id
}

// Build finalizes the topology: local rings get one extra bridge stop each,
// and the global ring interleaves bridges with the global-resident nodes.
func (n *Network) Build() {
	if n.built {
		return
	}
	nRings := (n.coreCount + coresPerRing - 1) / coresPerRing
	n.locals = make([]*Ring, nRings)
	for i := range n.locals {
		// +1 stop for the bridge to the global ring.
		n.locals[i] = NewRing(n.eng, fmt.Sprintf("local%d", i), coresPerRing+1, n.cfg)
	}
	globalStops := nRings + len(n.globalOrder)
	if globalStops == 0 {
		globalStops = 1
	}
	n.global = NewRing(n.eng, "global", globalStops, n.cfg)
	// Assign global stops: bridges first (spread), then global nodes.
	n.bridgeStops = make([]int, nRings)
	stop := 0
	for i := 0; i < nRings; i++ {
		n.bridgeStops[i] = stop
		stop++
	}
	for _, id := range n.globalOrder {
		n.nodes[id].globalStop = stop
		stop++
	}
	for i := range n.nodes {
		if n.nodes[i].kind == kindCore {
			n.nodes[i].globalStop = n.bridgeStops[n.nodes[i].localRing]
		}
	}
	n.built = true
}

// bridgeLocalStop is the local-ring stop index used by the bridge.
func (n *Network) bridgeLocalStop() int { return coresPerRing }

// hopEvent relays one message across the ring hops of a bridged route. One
// pooled instance carries the whole journey: each Fire reserves the next
// hop and reschedules itself at that hop's arrival; the final Fire records
// latency, recycles the event, and fires the send's completion.
type hopEvent struct {
	net    *Network
	bytes  uint32
	sent   sim.Cycle
	stage  int8
	stages int8
	rings  [3]*Ring
	froms  [3]int
	tos    [3]int
	ev     sim.Event // the send's completion; nil for none
}

func (h *hopEvent) Fire() {
	if h.stage < h.stages {
		i := h.stage
		h.stage++
		h.rings[i].Transfer(h.froms[i], h.tos[i], h.bytes, h)
		return
	}
	net := h.net
	net.totalLatency += net.eng.Now() - h.sent
	ev := h.ev
	h.ev = nil
	net.hops.Put(h)
	if ev != nil {
		ev.Fire()
	}
}

func (n *Network) getHop(bytes uint32) *hopEvent {
	h := n.hops.Get()
	h.net = n
	h.bytes = bytes
	h.sent = n.eng.Now()
	h.stage = 0
	h.stages = 0
	return h
}

func (h *hopEvent) addHop(r *Ring, from, to int) {
	h.rings[h.stages] = r
	h.froms[h.stages] = from
	h.tos[h.stages] = to
	h.stages++
}

// Send moves a message of the given size from one node to another and
// fires ev when its tail arrives; a nil ev still books the route but
// completes nothing. Ring-resident routes reserve their ring now and
// schedule ev directly; bridged routes relay through a pooled hopEvent.
// The returned arrival cycle is for observability, and is 0 on bridged
// routes, where it is only known once the last hop is reserved.
func (n *Network) Send(from, to NodeID, bytes uint32, ev sim.Event) sim.Cycle {
	if !n.built {
		panic("noc: Send before Build")
	}
	nf, nt := &n.nodes[from], &n.nodes[to]
	n.messages++

	if single := n.singleRing(nf, nt); single != nil {
		sf, st := n.ringStops(nf, nt)
		arrival := single.Transfer(sf, st, bytes, ev)
		n.totalLatency += arrival - n.eng.Now()
		return arrival
	}

	h := n.getHop(bytes)
	h.ev = ev
	if nf.kind == kindCore {
		h.addHop(n.locals[nf.localRing], nf.localStop, n.bridgeLocalStop())
	}
	h.addHop(n.global, nf.globalStop, nt.globalStop)
	if nt.kind == kindCore {
		h.addHop(n.locals[nt.localRing], n.bridgeLocalStop(), nt.localStop)
	}
	h.Fire() // reserves hop 0 immediately
	return 0
}

// singleRing returns the one ring a message traverses, or nil for bridged
// routes.
func (n *Network) singleRing(nf, nt *node) *Ring {
	switch {
	case nf.kind == kindCore && nt.kind == kindCore && nf.localRing == nt.localRing:
		return n.locals[nf.localRing]
	case nf.kind == kindGlobal && nt.kind == kindGlobal:
		return n.global
	}
	return nil
}

// ringStops returns the stops used on a single-ring route.
func (n *Network) ringStops(nf, nt *node) (from, to int) {
	if nf.kind == kindCore {
		return nf.localStop, nt.localStop
	}
	return nf.globalStop, nt.globalStop
}

// Messages returns the number of Send calls completed or in flight.
func (n *Network) Messages() uint64 { return n.messages }

// AvgLatency returns mean end-to-end latency of completed sends, in cycles.
func (n *Network) AvgLatency() float64 {
	if n.messages == 0 {
		return 0
	}
	return float64(n.totalLatency) / float64(n.messages)
}

// GlobalRing exposes the global ring for stats.
func (n *Network) GlobalRing() *Ring { return n.global }

// LocalRings exposes the local rings for stats.
func (n *Network) LocalRings() []*Ring { return n.locals }

// NodeName returns the diagnostic name of a node.
func (n *Network) NodeName(id NodeID) string { return n.nodes[id].name }
