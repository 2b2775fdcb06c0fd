package core

import "tasksuperscalar/internal/sim"

// Config sizes the pipeline frontend. The defaults reproduce the paper's
// chosen operating point: 8 TRSs and 2 ORT/OVT pairs, with 7 MB of eDRAM
// total (6 MB TRS + 512 KB ORT + 512 KB OVT).
type Config struct {
	NumTRS int // task reservation stations
	NumORT int // object renaming tables; each ORT pairs with one OVT

	TRSBytesEach uint64 // eDRAM per TRS (managed as 128 B blocks)
	ORTBytesEach uint64 // eDRAM per ORT (16-way sets, 32 B entries)
	OVTBytesEach uint64 // eDRAM per OVT (32 B version records)

	GatewayBufBytes uint32 // incoming task buffer at the gateway (1 KB)

	// Renaming disables the OVT's rename buffers when false (ablation):
	// output operands then wait for the previous version to die, i.e.
	// WaR/WaW dependencies serialize.
	Renaming bool

	// Chaining selects consumer chaining (the paper's design) versus
	// direct per-operand consumer lists held at the producer (ablation).
	Chaining bool

	// RecordChains counts dead versions by consumer-chain length for the
	// §IV.B.2 statistics. The histogram grows with the longest chain, not
	// with the task count; streaming runs disable it.
	RecordChains bool
}

// Block geometry of the TRS storage (paper §IV.B.2).
const (
	trsBlockBytes     = 128
	mainBlockOperands = 4 // main block: task-globals + first 4 operands
	indirBlockOps     = 5 // each indirect block holds 5 more operands
	maxIndirBlocks    = 3 // up to 3 indirect blocks
	// MaxOperands is the architectural per-task operand limit (19).
	MaxOperands = mainBlockOperands + maxIndirBlocks*indirBlockOps

	ortEntryBytes = 32 // tag + last user + version pointer
	ortWays       = 16 // 16-way cache of memory objects
	ovtEntryBytes = 32 // version record

	sramFreeListHeads = 64 // block addresses staged in the 128 B SRAM buffer

	// ortStashLimit is the number of operands an ORT may hold waiting for
	// full sets before it backpressures the gateway (model calibration).
	// Decode order only requires per-object FIFO, which the per-set stash
	// preserves, so a bounded stash lets unrelated operands flow past an
	// unlucky set.
	ortStashLimit = 64
)

// Module timing (§IV.B): every pipeline controller spends procCycles on
// each packet it handles, and each access to its eDRAM costs edramCycles.
const (
	procCycles  sim.Cycle = 16
	edramCycles sim.Cycle = 22
)

// Task-generating thread model (calibration): cycles to pack and emit one
// task are GenBaseCycles + GenPerOpCycles per operand. The software
// runtime's generator packs tasks at the same cost.
const (
	GenBaseCycles  sim.Cycle = 24
	GenPerOpCycles sim.Cycle = 12
)

// CtrlBytes is the size of a protocol packet on the NoC: the pipeline's
// messages, and the backend's dispatch header, credits and steals.
const CtrlBytes uint32 = 32

// DefaultConfig returns the paper's operating point (§VI conclusion:
// 8 TRS + 2 ORT/OVT, 7 MB eDRAM).
func DefaultConfig() Config {
	return Config{
		NumTRS:          8,
		NumORT:          2,
		TRSBytesEach:    768 << 10, // 8 x 768 KB = 6 MB
		ORTBytesEach:    256 << 10, // 2 x 256 KB = 512 KB
		OVTBytesEach:    256 << 10, // 2 x 256 KB = 512 KB
		GatewayBufBytes: 1024,
		Renaming:        true,
		Chaining:        true,
		RecordChains:    true,
	}
}

// blocksForOperands returns how many 128 B blocks a task with n operands
// occupies: one main block plus indirect blocks of 5 operands each.
func blocksForOperands(n int) int {
	if n <= mainBlockOperands {
		return 1
	}
	extra := n - mainBlockOperands
	return 1 + (extra+indirBlockOps-1)/indirBlockOps
}

// taskRecordBytes estimates the bytes of task state actually used inside the
// allocated blocks (for the internal-fragmentation statistic): 32 B of task
// globals plus 24 B per operand.
func taskRecordBytes(n int) int { return 32 + 24*n }
