package core

import (
	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// Protocol messages of the asynchronous point-to-point protocol (Figures
// 6-9). Each module kind handles a small fixed set of messages, spelled as
// one message type per kind: a kind tag plus the fields its messages use.
// Messages travel by value, so a queued message is a slot of its module's
// input queue and a handler owns the copy it is given. TestRecordSizes pins
// each type's size, which is the host memory per queued message.

// trsKind tags a message to a TRS.
type trsKind uint8

const (
	trsAlloc            trsKind = iota // allocate storage for a new task (Figure 6)
	trsOperandInfo                     // decoded operand information from an ORT (Figures 7-9)
	trsScalar                          // a scalar operand, straight from the gateway
	trsRegisterConsumer                // register a consumer with a version's previous user (Figure 8)
	trsDataReady                       // one readiness condition of an operand is satisfied
	trsFinished                        // the backend completed the task
)

// trsMsg is a message to a TRS. An operand info is "operand <1,17,0> is
// 512B @283" in Figures 7-9, with the object's base and size left out: the
// TRS reads them from the task at dispatch.
type trsMsg struct {
	task *taskmodel.Task // trsAlloc
	// buf is the data's buffer: a data ready's, or an operand info's when
	// the data is ready at decode.
	buf uint64
	// op is the operand concerned: the consumer of a trsRegisterConsumer,
	// and op.Task the task of a trsFinished.
	op OperandID
	// producer is the previous user of the version to register with
	// (trsOperandInfo when hasProducer, trsRegisterConsumer), and prodGen
	// its slot's generation.
	producer OperandID
	// version is, for an operand info, the version the operand reads (In)
	// or produces (Out/InOut). A trsRegisterConsumer queries it if the
	// producer already retired: the version read (In) or the consumer's own
	// in-place version (InOut).
	version VersionID
	prodGen uint32

	kind           trsKind
	dir            taskmodel.Dir // trsOperandInfo
	hasProducer    bool          // trsOperandInfo: register with producer for input data
	immediateReady int8          // trsOperandInfo: ready messages satisfied at decode (ORT miss)
	output         bool          // trsDataReady: output buffer granted (from the OVT), not input data
}

// ortKind tags a message to an ORT.
type ortKind uint8

const (
	ortDecode  ortKind = iota // one memory operand from the gateway, for dependency decoding
	ortRelease                // the object's latest version went idle; the entry may go
)

// ortMsg is a message to an ORT. A release carries the number of uses the
// OVT has recorded for the version: the ORT frees the entry only if its own
// grant count matches, which proves no use can still be in flight (all
// grants originate at the ORT, and ORT->OVT messages are FIFO).
type ortMsg struct {
	base    uint64    // the object's base address
	op      OperandID // ortDecode
	version VersionID // ortRelease
	size    uint32    // ortDecode
	granted int32     // ortRelease
	kind    ortKind
	dir     taskmodel.Dir // ortDecode
}

// ovtKind tags a message to an OVT.
type ovtKind uint8

const (
	// ovtNewVersion creates a version record. The ORT assigns version IDs
	// so no reply round-trip is needed.
	ovtNewVersion ovtKind = iota
	ovtAddUse             // register a reader with a version
	ovtDecUse             // drop one use of a version (task finished)
	// ovtQueryBuf resolves the data buffer of a version whose last user
	// already retired; the OVT replies with a data-ready message.
	ovtQueryBuf
	ovtReleaseAck // acknowledge an ortRelease
	ovtCopyDone   // a DMA copy-back of the version completed
)

// ovtMsg is a message to an OVT.
type ovtMsg struct {
	base uint64    // ovtNewVersion
	v    VersionID // the version concerned
	prev VersionID // ovtNewVersion when hasPrev: the version superseded
	// op is the writer operand producing an ovtNewVersion (when
	// hasProducer), or the consumer an ovtQueryBuf answers.
	op   OperandID
	size uint32 // ovtNewVersion

	kind        ovtKind
	hasProducer bool
	hasPrev     bool
	inPlace     bool // inout (or renaming disabled): reuse prev's buffer
	initialUse  int8 // use count held at creation (producer or first reader)
	freed       bool // ovtReleaseAck: the ORT freed the entry
}

// gwKind tags a message to the gateway.
type gwKind uint8

const (
	gwKick       gwKind = iota // wake the work loop
	gwAllocReply               // the slot allocated for a pending task ("use slot 17", Figure 6)
	gwSpaceFreed               // a TRS that reported itself full has room again
	gwStall                    // backpressure from a full ORT or OVT, asserted or released
)

// gwMsg is a message to the gateway.
type gwMsg struct {
	seq uint64 // gwAllocReply: the pending task's sequence number, its buffer reference
	id  TaskID // gwAllocReply
	// src is the sending TRS of a gwSpaceFreed, and a gwStall's module
	// index in the frontend's stall bitmap.
	src       int32
	kind      gwKind
	moreSpace bool // gwAllocReply: the TRS still has room for a maximal task
	stalled   bool // gwStall
}

// ResolvedOperand is an operand as the backend sees it after decode: the
// original object identity plus the buffer the task must actually access
// (the rename buffer or a producer's version buffer).
type ResolvedOperand struct {
	Base taskmodel.Addr
	Buf  uint64
	Size uint32
	Dir  taskmodel.Dir
}

// ReadyTask is handed to the backend when all operands of a task are ready.
//
// Frontend-issued records are pooled: the backend calls Release when it has
// fully retired the task, returning the record (and its operand slice) to
// the issuing frontend's free list. Producers outside the hardware pipeline
// (the software runtime, the sequential driver, tests) build plain records
// for which Release is a no-op.
type ReadyTask struct {
	ID       TaskID
	Task     *taskmodel.Task
	Operands []ResolvedOperand

	DecodedAt sim.Cycle
	ReadyAt   sim.Cycle

	// Depth is scheduling metadata attached by the dispatcher: the task's
	// dependent-chain height (number of tasks transitively waiting on its
	// outputs) under the critical-path policy, 0 otherwise. It is a
	// priority hint, never machine state — producers leave it zero.
	Depth uint32

	owner ReadyTaskPool // pool owner; nil for unpooled records
}

// ReadyTaskPool recycles retired dispatch records. The hardware frontend is
// the canonical implementation; tests install recorders to observe the
// Release round-trip, and alternative producers may pool their own records.
type ReadyTaskPool interface {
	// PutReadyTask receives a record whose task has fully retired. The
	// record (including Task and Operands) is the pool's to reuse.
	PutReadyTask(rt *ReadyTask)
}

// NewPooledReadyTask builds a record owned by pool: its Release hands the
// record to pool.PutReadyTask instead of being a no-op.
func NewPooledReadyTask(pool ReadyTaskPool) *ReadyTask { return &ReadyTask{owner: pool} }

// Release returns a pooled record to its owner. The caller must not touch
// rt (including Task and Operands) afterwards; releasing an unpooled record
// does nothing.
func (rt *ReadyTask) Release() {
	if rt.owner != nil {
		rt.owner.PutReadyTask(rt)
	}
}

// Dispatcher consumes ready tasks; the execution backend implements it.
type Dispatcher interface {
	// Node is the dispatcher's attachment point on the network.
	Node() noc.NodeID
	// TaskReady delivers a fully decoded, ready-to-run task.
	TaskReady(rt *ReadyTask)
}
