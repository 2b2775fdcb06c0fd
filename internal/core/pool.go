package core

import "tasksuperscalar/internal/sim"

// msgPools holds one sim.Pool per protocol message type. Protocol messages
// travel as *T inside an `any`: storing a pointer in an interface does not
// allocate, so a pooled message makes the whole send-transport-handle path
// allocation-free. Pools are owned by one Frontend and therefore by one
// engine goroutine — no locking.
//
// Convention: a message is taken with Get, fully overwritten by the sender
// (whole-struct assignment, never field patching, since Get returns the
// record's old contents), and returned with Put by the receiving module's
// handle method after it has copied the value out. Pooled messages must
// never be retained by reference across handler boundaries.
type msgPools struct {
	alloc       sim.Pool[trsAllocMsg]
	opInfo      sim.Pool[trsOperandInfoMsg]
	scalar      sim.Pool[trsScalarMsg]
	regConsumer sim.Pool[trsRegisterConsumerMsg]
	dataReady   sim.Pool[trsDataReadyMsg]
	finished    sim.Pool[trsTaskFinishedMsg]

	decode     sim.Pool[ortDecodeMsg]
	ortRelease sim.Pool[ortReleaseMsg]

	newVersion sim.Pool[ovtNewVersionMsg]
	addUse     sim.Pool[ovtAddUseMsg]
	decUse     sim.Pool[ovtDecUseMsg]
	query      sim.Pool[ovtQueryBufMsg]
	releaseAck sim.Pool[ovtReleaseAckMsg]
	copyDone   sim.Pool[ovtCopyDoneMsg]

	allocReply sim.Pool[gwAllocReplyMsg]
	spaceFreed sim.Pool[gwSpaceFreedMsg]
	stall      sim.Pool[gwStallMsg]
}
