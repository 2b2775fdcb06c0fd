package tss

import (
	"encoding/json"
	"testing"

	"tasksuperscalar/internal/backend"
	"tasksuperscalar/internal/workloads"
)

// The differential policy harness: every workload × every policy,
// asserting
//
//	(a) fifo is byte-identical to the default (unset-policy) machine,
//	(b) every policy conserves tasks (each seq retires exactly once),
//	(c) spec replays cycle-exact against its own recorded dispatch trace
//	    under the non-speculative validation oracle,
//	(d) every policy is deterministic across repeated runs.
//
// The absolute fifo goldens are pinned separately by
// scripts/check_determinism.sh; here fifo's baseline is the in-process
// default machine, which those goldens anchor.

// diffPolicyConfig is the harness machine: small enough that the full grid
// stays fast, hardware pipeline, no memory system (policies act on the
// dispatch choke point either way).
func diffPolicyConfig(policy string) Config {
	cfg := DefaultConfig().WithCores(16)
	cfg.Memory = false
	cfg.Backend.Policy = policy
	if policy == backend.PolicyHetero {
		// A quarter of the machine runs kernel 0 at double speed so
		// affinity has something to prefer.
		cfg.Backend.WorkerClasses = []WorkerClass{
			{Name: "fast", Count: 4, Speed: 1, KernelSpeed: []float64{2}},
		}
	}
	return cfg
}

func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

func TestPolicyDifferential(t *testing.T) {
	budget := 400
	if testing.Short() {
		budget = 150
	}
	for _, wl := range workloads.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			tasks := wl.Gen(budget, 42).Tasks
			n := uint64(len(tasks))

			// (a) the unset-policy machine is the fifo baseline.
			base, err := RunTasks(tasks, diffPolicyConfig(""))
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			baseBytes := resultBytes(t, base)

			for _, policy := range backend.PolicyNames() {
				policy := policy
				t.Run(policy, func(t *testing.T) {
					t.Parallel()
					// A task slice of its own: RunTasks writes sequence
					// numbers into the records, and the policy subtests
					// run concurrently.
					tasks := wl.Gen(budget, 42).Tasks
					cfg := diffPolicyConfig(policy)

					// (b) conservation: each seq exactly once.
					seen := make([]int, n)
					cfg.OnComplete = func(seq, cycle uint64) {
						if seq >= n {
							t.Errorf("retired unknown seq %d", seq)
							return
						}
						seen[seq]++
					}
					serial, err := RunTasks(tasks, cfg)
					if err != nil {
						t.Fatalf("serial run: %v", err)
					}
					cfg.OnComplete = nil
					for seq, c := range seen {
						if c != 1 {
							t.Fatalf("seq %d retired %d times", seq, c)
						}
					}
					if serial.Tasks != n {
						t.Fatalf("executed %d of %d tasks", serial.Tasks, n)
					}
					got := resultBytes(t, serial)

					if policy == backend.PolicyFIFO && string(got) != string(baseBytes) {
						t.Fatalf("fifo diverged from the default machine:\n%s\nvs\n%s", got, baseBytes)
					}
					if ds := serial.Dispatch; ds.Policy != policy {
						t.Fatalf("Dispatch.Policy = %q, want %q", ds.Policy, policy)
					} else if ds.Dispatches != n {
						t.Fatalf("Dispatches = %d, want %d", ds.Dispatches, n)
					}

					// (d) repeatability.
					r, err := RunTasks(tasks, cfg)
					if err != nil {
						t.Fatalf("repeat run: %v", err)
					}
					if b := resultBytes(t, r); string(b) != string(got) {
						t.Fatalf("repeat diverged from first run:\n%s\nvs\n%s", b, got)
					}

					// (c) spec validates against its own trace.
					if policy == backend.PolicySpec {
						if serial.Dispatch.SpecDispatches != serial.Dispatch.SpecValidated {
							t.Fatalf("speculation not fully validated: %d dispatched, %d validated",
								serial.Dispatch.SpecDispatches, serial.Dispatch.SpecValidated)
						}
						var trace []DispatchRecord
						c := cfg
						c.Backend.OnDispatch = func(rec DispatchRecord) { trace = append(trace, rec) }
						if _, err := RunTasks(tasks, c); err != nil {
							t.Fatalf("trace run: %v", err)
						}
						c.Backend.OnDispatch = nil
						c.Backend.SpecValidate = trace
						replay, err := RunTasks(tasks, c)
						if err != nil {
							t.Fatalf("validation replay: %v", err)
						}
						if b := resultBytes(t, replay); string(b) != string(got) {
							t.Fatalf("validation replay diverged from serial run")
						}
					}
				})
			}
		})
	}
}

// TestPolicyChangesSchedule pins the laboratory's reason to exist: on a
// dependency-heavy workload with a heterogeneous machine, critical-path and
// hetero dispatch measurably change the scheduled work/makespan relative to
// fifo on the same machine. (TotalWorkCycles — the stream's runtime sum —
// is policy-invariant by construction; the scheduled WorkCycles and the
// makespan are where placement shows.)
func TestPolicyChangesSchedule(t *testing.T) {
	tasks := workloads.Cholesky(400, 42).Tasks

	run := func(policy string) *Result {
		cfg := DefaultConfig().WithCores(16)
		cfg.Memory = false
		cfg.Backend.Policy = policy
		cfg.Backend.WorkerClasses = []WorkerClass{{Name: "fast", Count: 4, Speed: 2}}
		r, err := RunTasks(tasks, cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		return r
	}

	fifo := run(backend.PolicyFIFO)
	cp := run(backend.PolicyCriticalPath)
	het := run(backend.PolicyHetero)

	if cp.Cycles == fifo.Cycles {
		t.Errorf("critical-path makespan identical to fifo (%d cycles) — priority had no effect", cp.Cycles)
	}
	if het.Dispatch.WorkCycles == fifo.Dispatch.WorkCycles {
		t.Errorf("hetero scheduled the same work cycles as fifo (%d) — affinity had no effect",
			het.Dispatch.WorkCycles)
	}
	if het.Dispatch.AffineDispatches == 0 {
		t.Errorf("hetero made no affine dispatches")
	}
	if cp.Dispatch.MaxDepth == 0 {
		t.Errorf("critical-path saw no chain depth on a Cholesky graph")
	}
	for _, r := range []*Result{fifo, cp, het} {
		if r.TotalWorkCycles != fifo.TotalWorkCycles {
			t.Errorf("TotalWorkCycles must be policy-invariant: %d vs %d",
				r.TotalWorkCycles, fifo.TotalWorkCycles)
		}
	}
}
