package tss

import (
	"context"
	"fmt"

	"tasksuperscalar/internal/taskmodel"
)

// RunPartitioned executes several task partitions, each emitted by its own
// task-generating thread (§III.B of the paper: the single-threaded in-order
// decode property extends to multiple generating threads when data is
// partitioned between them — tasks from different threads then have no data
// dependencies, so any interleaving at the gateway preserves per-object
// decode order).
//
// Partitions must not share memory objects; RunPartitioned verifies this and
// rejects overlapping partitions (build partitions with NewProgramAt and
// distinct bases). Only the hardware pipeline supports multiple generators.
func RunPartitioned(partitions []*Program, cfg Config) (*Result, error) {
	if len(partitions) == 0 {
		return nil, fmt.Errorf("tss: no partitions")
	}
	if cfg.Runtime != HardwarePipeline {
		return nil, fmt.Errorf("tss: RunPartitioned requires the hardware pipeline")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var streams [][]*taskmodel.Task
	for i, p := range partitions {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("tss: partition %d: %w", i, err)
		}
		streams = append(streams, p.tasks)
	}
	if err := checkDisjoint(streams); err != nil {
		return nil, err
	}

	// Assign globally unique sequence numbers, preserving per-partition
	// order (observability arrays are indexed by Seq).
	total := 0
	for _, ts := range streams {
		for _, t := range ts {
			t.Seq = uint64(total)
			total++
		}
	}

	// Each partition becomes one pre-sequenced stream; the shared
	// multi-generator machinery drives one generating thread per stream.
	counting := make([]*countingStream, len(streams))
	for i, ts := range streams {
		counting[i] = newCountingStream(&rawStream{tasks: ts}, nil)
	}
	return runHardwareMulti(context.Background(), counting, cfg)
}

// checkDisjoint rejects partitions that touch the same memory object.
func checkDisjoint(streams [][]*taskmodel.Task) error {
	owner := make(map[taskmodel.Addr]int)
	for i, ts := range streams {
		for _, t := range ts {
			for _, op := range t.Operands {
				if op.Dir == taskmodel.Scalar {
					continue
				}
				if prev, ok := owner[op.Base]; ok && prev != i {
					return fmt.Errorf("tss: partitions %d and %d share object %#x (data must be partitioned between generating threads)",
						prev, i, uint64(op.Base))
				}
				owner[op.Base] = i
			}
		}
	}
	return nil
}

// rawStream is a Stream over pre-sequenced tasks (sequence numbers must not
// be reassigned, unlike taskmodel.SliceStream).
type rawStream struct {
	tasks []*taskmodel.Task
	pos   int
}

func (s *rawStream) Next() *taskmodel.Task {
	if s.pos >= len(s.tasks) {
		return nil
	}
	t := s.tasks[s.pos]
	s.pos++
	return t
}
