package experiments

import (
	"fmt"
	"io"
	"strconv"

	"tasksuperscalar/internal/backend"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

// policyAxis returns the dispatch policies the laboratory sweeps and the
// worker-class mix applied to the hetero point (a quarter of the machine at
// double speed — enough heterogeneity for affinity to matter without
// dwarfing the baseline cores).
func policyAxis() []string { return backend.PolicyNames() }

func policyClasses(policy string, cores int) []tss.WorkerClass {
	if policy != backend.PolicyHetero {
		return nil
	}
	n := cores / 4
	if n < 1 {
		n = 1
	}
	return []tss.WorkerClass{{Name: "fast", Count: n, Speed: 2}}
}

// Policies sweeps the dispatch-policy laboratory: every built-in policy ×
// core count, reporting makespan, speedup over the stream's sequential
// lower bound, the scheduled work cycles (where heterogeneity shows), and
// the per-policy counters. It is an extension experiment (Extra): the
// paper's backend is FIFO-only, so this grid is new signal, not a figure
// reproduction, and stays out of `-experiment all`.
func Policies(w io.Writer, o Options) error {
	coreAxis := []int{32, 64, 128, 256}
	benchNames := []string{"Cholesky", "H264"}
	if o.Quick {
		coreAxis = []int{16, 32}
		benchNames = []string{"Cholesky"}
	}
	policies := policyAxis()
	var benches []workloads.Info
	for _, n := range benchNames {
		wl, _ := workloads.ByName(n)
		benches = append(benches, wl)
	}

	type cell struct {
		res *tss.Result
		sp  float64
	}
	// cells[bench][policy][cores], computed in parallel.
	cells := make([][][]cell, len(benches))
	for i := range cells {
		cells[i] = make([][]cell, len(policies))
		for j := range cells[i] {
			cells[i][j] = make([]cell, len(coreAxis))
		}
	}
	n := len(benches) * len(policies) * len(coreAxis)
	err := o.pool().Do(n, func(i int) error {
		bi := i / (len(policies) * len(coreAxis))
		rest := i % (len(policies) * len(coreAxis))
		pi := rest / len(coreAxis)
		ci := rest % len(coreAxis)
		cfg := baseConfig(coreAxis[ci])
		cfg.Backend.Policy = policies[pi]
		cfg.Backend.WorkerClasses = policyClasses(policies[pi], coreAxis[ci])
		res, sp, err := benchRun(o, benches[bi], o.budget(fullBudget(benches[bi].Name))/2, o.Seed, cfg)
		if err != nil {
			return fmt.Errorf("%s %s %dp: %w", benches[bi].Name, policies[pi], coreAxis[ci], err)
		}
		cells[bi][pi][ci] = cell{res: res, sp: sp}
		return nil
	})
	if err != nil {
		return err
	}

	for bi, wl := range benches {
		fmt.Fprintf(w, "Policy laboratory (%s): speedup over sequential by dispatch policy\n", wl.Name)
		fmt.Fprintf(w, "%-14s", "policy")
		for _, c := range coreAxis {
			fmt.Fprintf(w, " %8dp", c)
		}
		fmt.Fprintln(w)
		for pi, policy := range policies {
			fmt.Fprintf(w, "%-14s", policy)
			for ci, c := range coreAxis {
				cl := cells[bi][pi][ci]
				fmt.Fprintf(w, " %9.1f", cl.sp)
				ds := cl.res.Dispatch
				o.Sink.Record("policies", []Label{
					{"bench", wl.Name}, {"policy", policy}, {"cores", strconv.Itoa(c)},
				}, map[string]float64{
					"speedup":           cl.sp,
					"cycles":            float64(cl.res.Cycles),
					"total_work_cycles": float64(cl.res.TotalWorkCycles),
					"work_cycles":       float64(ds.WorkCycles),
					"ready_peak":        float64(ds.ReadyPeak),
					"affine_dispatches": float64(ds.AffineDispatches),
					"spec_dispatches":   float64(ds.SpecDispatches),
					"max_depth":         float64(ds.MaxDepth),
				})
			}
			fmt.Fprintln(w)
		}
		// The axes that separate the policies, one line per policy at the
		// largest machine.
		last := len(coreAxis) - 1
		for pi, policy := range policies {
			ds := cells[bi][pi][last].res.Dispatch
			fmt.Fprintf(w, "  %-12s @%dp: work %d cycles, ready peak %d",
				policy, coreAxis[last], ds.WorkCycles, ds.ReadyPeak)
			if ds.AffineDispatches > 0 {
				fmt.Fprintf(w, ", affine %d/%d", ds.AffineDispatches, ds.Dispatches)
			}
			if ds.SpecDispatches > 0 {
				fmt.Fprintf(w, ", speculated %d (validated %d)", ds.SpecDispatches, ds.SpecValidated)
			}
			if ds.MaxDepth > 0 {
				fmt.Fprintf(w, ", max chain depth %d", ds.MaxDepth)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
