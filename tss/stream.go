package tss

import (
	"context"
	"fmt"

	"tasksuperscalar/internal/taskmodel"
)

// Task is one dynamic kernel invocation: the unit the task-generating
// thread emits and the pipeline decodes.
type Task = taskmodel.Task

// Generator produces a task stream lazily, one task per Next call, exactly
// as the paper's task-generating thread emits tasks while the pipeline is
// already executing older ones (§III.C). Next returns the next task and
// true, or nil and false when the stream ends. Tasks may be constructed on
// demand — the runtime never needs the whole program in memory, so streams
// can be arbitrarily long.
//
// Generators must be deterministic: two generators constructed the same way
// must yield identical tasks, so a streamed run can be validated against a
// pre-recorded one.
type Generator interface {
	Next() (*Task, bool)
}

// GeneratorFunc adapts a function to a Generator.
type GeneratorFunc func() (*Task, bool)

// Next implements Generator.
func (f GeneratorFunc) Next() (*Task, bool) { return f() }

// Generator returns a Generator replaying the program's recorded tasks in
// order (for comparing streamed against pre-recorded execution).
func (p *Program) Generator() Generator {
	s := p.Stream()
	return GeneratorFunc(func() (*Task, bool) {
		t := s.Next()
		return t, t != nil
	})
}

// TaskBuilder carries the kernel registry and object allocator of a
// streaming program — the same bookkeeping Program provides, without
// recording tasks. A Generator typically owns one and calls NewTask from
// its Next method:
//
//	b := tss.NewTaskBuilder()
//	k := b.Kernel("stage")
//	i := 0
//	gen := tss.GeneratorFunc(func() (*tss.Task, bool) {
//		if i == 1_000_000 {
//			return nil, false
//		}
//		i++
//		obj := b.Alloc(4 << 10)
//		return b.NewTask(k, tss.Microseconds(20), tss.InOut(obj, 4<<10)), true
//	})
//	res, err := tss.RunStream(gen, cfg)
type TaskBuilder struct {
	reg   taskmodel.Registry
	alloc taskmodel.Allocator
}

// NewTaskBuilder returns a builder whose allocator starts at the default
// program base.
func NewTaskBuilder() *TaskBuilder { return NewTaskBuilderAt(0x1000_0000) }

// NewTaskBuilderAt returns a builder whose allocator starts at base (use
// distinct bases for generators that will run partitioned).
func NewTaskBuilderAt(base Addr) *TaskBuilder {
	return &TaskBuilder{alloc: taskmodel.NewAllocator(base)}
}

// Kernel registers (or looks up) a kernel by name.
func (b *TaskBuilder) Kernel(name string) KernelID { return b.reg.Register(name) }

// Registry exposes the kernel registry (for graph rendering).
func (b *TaskBuilder) Registry() *taskmodel.Registry { return &b.reg }

// Alloc reserves a fresh page-aligned memory object and returns its base.
func (b *TaskBuilder) Alloc(size uint32) Addr { return b.alloc.Alloc(size) }

// NewTask builds one task without recording it anywhere; the runtime
// assigns its sequence number when the task is pulled.
func (b *TaskBuilder) NewTask(k KernelID, runtimeCycles uint64, ops ...Operand) *Task {
	return &Task{Kernel: k, Operands: ops, Runtime: runtimeCycles}
}

// seqCounter hands out globally unique sequence numbers across the streams
// of one run (partitioned streaming runs share one counter so gateway
// references stay unambiguous).
type seqCounter struct{ next uint64 }

// countingStream adapts a task source into the internal taskmodel.Stream,
// validating architectural limits and accumulating the run accounting
// (task count and total work) that the slice-based path used to compute by
// re-walking the program. It holds no tasks itself, so a streamed run's
// memory stays proportional to the pipeline's in-flight window.
type countingStream struct {
	src  taskmodel.Stream
	seqs *seqCounter // nil: keep the sequence numbers already assigned

	n    uint64 // tasks handed to the runtime
	work uint64 // sum of their runtimes
	err  error  // validation failure; ends the stream early
}

func newCountingStream(src taskmodel.Stream, seqs *seqCounter) *countingStream {
	return &countingStream{src: src, seqs: seqs}
}

// generatorStream adapts a public Generator to taskmodel.Stream.
type generatorStream struct{ g Generator }

func (s generatorStream) Next() *taskmodel.Task {
	t, ok := s.g.Next()
	if !ok {
		return nil
	}
	return t
}

// Next implements taskmodel.Stream.
func (s *countingStream) Next() *taskmodel.Task {
	if s.err != nil {
		return nil
	}
	t := s.src.Next()
	if t == nil {
		return nil
	}
	if t.NumOperands() > MaxOperands {
		s.err = fmt.Errorf("tss: task %d has %d operands; the pipeline supports at most %d",
			s.n, t.NumOperands(), MaxOperands)
		return nil
	}
	if s.seqs != nil {
		t.Seq = s.seqs.next
		s.seqs.next++
	}
	s.n++
	s.work += t.Runtime
	return t
}

// RunStream executes a lazily generated task stream. Unlike Run, memory is
// bounded by the pipeline's in-flight window rather than the stream length:
// per-task schedule recording and consumer-chain statistics are disabled
// (Result.Start and Result.Finish are nil; set Config.OnComplete to observe
// retirement instead), and the generator is paced by gateway back-pressure,
// so streams of millions of tasks run in O(window) space.
func RunStream(g Generator, cfg Config) (*Result, error) {
	return RunStreamCtx(context.Background(), g, cfg)
}

// RunStreamCtx is RunStream with cooperative cancellation: the engine loop
// polls ctx every sim.DefaultCancelCheckCycles simulated cycles (see RunCtx)
// and a cancelled stream is abandoned with an error wrapping ctx.Err().
func RunStreamCtx(ctx context.Context, g Generator, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Backend.RecordSchedule = false
	cfg.Frontend.RecordChains = false
	st := newCountingStream(generatorStream{g}, &seqCounter{})
	return dispatchRun(ctx, st, cfg)
}

// RunStreamPartitioned executes several lazily generated streams, one
// task-generating thread each, on the hardware pipeline (the streaming
// analogue of RunPartitioned). Partitions must not share memory objects;
// with unbounded streams this cannot be checked up front, so the caller is
// responsible for data partitioning (build each generator from a
// NewTaskBuilderAt with a distinct base).
func RunStreamPartitioned(gens []Generator, cfg Config) (*Result, error) {
	return RunStreamPartitionedCtx(context.Background(), gens, cfg)
}

// RunStreamPartitionedCtx is RunStreamPartitioned with cooperative
// cancellation (see RunStreamCtx).
func RunStreamPartitionedCtx(ctx context.Context, gens []Generator, cfg Config) (*Result, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("tss: no generators")
	}
	if cfg.Runtime != HardwarePipeline {
		return nil, fmt.Errorf("tss: RunStreamPartitioned requires the hardware pipeline")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Backend.RecordSchedule = false
	cfg.Frontend.RecordChains = false
	seqs := &seqCounter{}
	streams := make([]*countingStream, len(gens))
	for i, g := range gens {
		streams[i] = newCountingStream(generatorStream{g}, seqs)
	}
	return runHardwareMulti(ctx, streams, cfg)
}
