package core

import (
	"tasksuperscalar/internal/noc"
	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/taskmodel"
)

// Protocol messages of the asynchronous point-to-point protocol (Figures
// 6-9). Each message type is handled by exactly one module kind.

// --- messages to a TRS ---

// trsAllocMsg asks a TRS to allocate storage for a new task (Figure 6).
type trsAllocMsg struct {
	task  *taskmodel.Task
	gwRef int // gateway buffer reference, echoed back to avoid associative lookups
}

// trsOperandInfoMsg delivers decoded operand information from an ORT
// ("operand <1,17,0> is 512B @283" in Figures 7-9). The object's base and
// size are left out: the TRS reads them from the task at dispatch.
type trsOperandInfoMsg struct {
	op      OperandID
	dir     taskmodel.Dir
	version VersionID // version this operand reads (In) or produces (Out/InOut)

	hasProducer bool // register with this user for input data
	producer    OperandID
	prodGen     uint32

	immediateReady int8   // ready messages satisfied at decode (ORT miss)
	readyBuf       uint64 // buffer address for immediately-ready data
}

// trsScalarMsg delivers a scalar operand directly from the gateway.
type trsScalarMsg struct {
	op OperandID
}

// trsRegisterConsumerMsg registers a consumer with the previous user of an
// object version (Figure 8: "register consumer of <2,5,2>").
type trsRegisterConsumerMsg struct {
	producer OperandID // the user being registered with
	prodGen  uint32
	consumer OperandID
	// queryVersion resolves the data location if the user already retired:
	// the version read (In) or the consumer's own in-place version (InOut).
	queryVersion VersionID
}

// trsDataReadyMsg marks one readiness condition of an operand satisfied.
type trsDataReadyMsg struct {
	op     OperandID
	buf    uint64
	output bool // true: output buffer available (from OVT); false: input data
}

// trsTaskFinishedMsg notifies the TRS that the backend completed the task.
type trsTaskFinishedMsg struct {
	id TaskID
}

// --- messages to an ORT ---

// ortDecodeMsg carries one memory operand from the gateway for dependency
// decoding.
type ortDecodeMsg struct {
	op   OperandID
	base uint64
	size uint32
	dir  taskmodel.Dir
}

// ortReleaseMsg tells the ORT that the latest version of an object went
// idle; the ORT may free the object's entry. granted is the number of uses
// the OVT has recorded for the version: the ORT frees the entry only if its
// own grant count matches, which proves no use can still be in flight (all
// grants originate at the ORT, and ORT->OVT messages are FIFO).
type ortReleaseMsg struct {
	base    uint64
	version VersionID
	granted int32
}

// --- messages to an OVT ---

// ovtNewVersionMsg creates a new version record. The ORT assigns version IDs
// so no reply round-trip is needed.
type ovtNewVersionMsg struct {
	v    VersionID
	base uint64
	size uint32

	hasProducer bool
	producer    OperandID // writer operand producing the version

	hasPrev bool
	prev    VersionID

	inPlace    bool // inout (or renaming disabled): reuse prev's buffer
	initialUse int8 // use count held at creation (producer or first reader)
}

// ovtAddUseMsg registers a reader with a version.
type ovtAddUseMsg struct{ v VersionID }

// ovtDecUseMsg drops one use of a version (task finished).
type ovtDecUseMsg struct{ v VersionID }

// ovtQueryBufMsg resolves the data buffer of a version whose last user
// already retired; the OVT replies with a data-ready message.
type ovtQueryBufMsg struct {
	v        VersionID
	consumer OperandID
}

// ovtReleaseAckMsg acknowledges an ortReleaseMsg.
type ovtReleaseAckMsg struct {
	v     VersionID
	freed bool
}

// --- messages to the gateway ---

// gwAllocReplyMsg returns the allocated slot for a pending task ("use slot
// 17" in Figure 6).
type gwAllocReplyMsg struct {
	gwRef     int
	id        TaskID
	moreSpace bool // the TRS still has room for a maximal task
}

// gwSpaceFreedMsg re-announces a TRS that previously reported itself full.
type gwSpaceFreedMsg struct{ trs int }

// gwStallMsg asserts or releases backpressure from a full ORT or OVT.
type gwStallMsg struct {
	src     int // module index in the frontend's stall bitmap
	stalled bool
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
