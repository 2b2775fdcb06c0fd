package tss

import (
	"context"
	"errors"
	"testing"

	"tasksuperscalar/internal/workloads"
)

// An uncancelled context must leave a run cycle-exact identical to the
// plain entry point, for every runtime kind: cancellation polling is
// observational.
func TestRunCtxUncancelledMatchesRun(t *testing.T) {
	wl, _ := workloads.ByName("cholesky")
	for _, kind := range []RuntimeKind{HardwarePipeline, SoftwareRuntime, Sequential} {
		b := wl.Gen(600, 7)
		cfg := DefaultConfig().WithCores(16)
		cfg.Memory = false
		cfg.Runtime = kind
		want, err := RunTasks(b.Tasks, cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		b2 := wl.Gen(600, 7)
		got, err := RunTasksCtx(ctx, b2.Tasks, cfg)
		cancel()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got.Cycles != want.Cycles || got.Tasks != want.Tasks {
			t.Fatalf("%v: ctx run %d cycles/%d tasks, plain run %d cycles/%d tasks",
				kind, got.Cycles, got.Tasks, want.Cycles, want.Tasks)
		}
	}
}

// A pre-cancelled context aborts the run with an error wrapping
// context.Canceled and no result.
func TestRunTasksCtxPreCancelled(t *testing.T) {
	wl, _ := workloads.ByName("cholesky")
	b := wl.Gen(600, 7)
	cfg := DefaultConfig().WithCores(16)
	cfg.Memory = false
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunTasksCtx(ctx, b.Tasks, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrap of context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
}

// Cancelling mid-run (from the OnComplete observer, so the cancel lands at a
// known point of simulated time) aborts the run with an error wrapping
// context.Canceled. The engine stops after the first event at or beyond the
// first poll boundary after the cancel, and that event can lie well past the
// boundary; TestRunContextCancelStopsAtFirstEventPastBoundary in
// internal/sim pins that contract.
func TestRunTasksCtxCancelMidRun(t *testing.T) {
	wl, _ := workloads.ByName("cholesky")
	b := wl.Gen(2000, 7)
	cfg := DefaultConfig().WithCores(16)
	cfg.Memory = false

	ctx, cancel := context.WithCancel(context.Background())
	var cancelAt uint64
	var retired int
	cfg.OnComplete = func(seq, cycle uint64) {
		retired++
		if retired == 50 {
			cancelAt = cycle
			cancel()
		}
	}
	_, err := RunTasksCtx(ctx, b.Tasks, cfg)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrap of context.Canceled", err)
	}
	if cancelAt == 0 {
		t.Fatal("run finished before the cancel point was reached")
	}
}

// RunStreamCtx honors cancellation too (the streaming path shares the same
// engine loop).
func TestRunStreamCtxCancelled(t *testing.T) {
	cfg := DefaultConfig().WithCores(8)
	cfg.Memory = false
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunStreamCtx(ctx, workloads.NewCPIStream(5000, 42), cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrap of context.Canceled", err)
	}
}
