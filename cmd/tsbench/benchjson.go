package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"tasksuperscalar/internal/benchsuite"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

// The -benchjson mode measures the simulation substrate's host-time
// efficiency (ns and allocations per event / per simulated task) and
// records the numbers as machine-readable JSON, so the perf trajectory of
// the engine is tracked in-repo (BENCH_engine.json) and per-PR (the CI
// bench artifact). The measured bodies are the internal/benchsuite
// functions — exactly the code `go test -bench` runs.
//
// The file keeps the whole trajectory: "baseline" is preserved from the
// existing file (seeded once from the pre-calendar-queue engine),
// "current" is refreshed on every run, and the previous "current" is
// appended to the dated "history" array — so the per-PR progression is
// never overwritten, only extended.
//
// Runs of one bench on one build spread by up to a fifth on a shared
// 2-CPU host, so every bench runs benchRepeats times: a result is the
// median run, and the snapshot keeps the fastest and slowest runs and the
// host's CPU count beside it.

// benchRepeats is how many times -benchjson runs each bench.
const benchRepeats = 5

type benchPoint struct {
	NsPerOp       float64 `json:"ns_per_op"`
	NsPerOpMin    float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax    float64 `json:"ns_per_op_max,omitempty"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	TasksPerOp    float64 `json:"tasks_per_op,omitempty"`
	NsPerTask     float64 `json:"ns_per_task,omitempty"`
	NsPerTaskMin  float64 `json:"ns_per_task_min,omitempty"`
	NsPerTaskMax  float64 `json:"ns_per_task_max,omitempty"`
	AllocsPerTask float64 `json:"allocs_per_task,omitempty"`
}

type benchSnapshot struct {
	Note    string                `json:"note,omitempty"`
	Date    string                `json:"date,omitempty"` // YYYY-MM-DD of the measurement
	Go      string                `json:"go"`
	Nproc   int                   `json:"nproc,omitempty"`
	Repeats int                   `json:"repeats,omitempty"` // runs per bench; absent means one
	Results map[string]benchPoint `json:"results"`
}

type benchFile struct {
	Schema   string         `json:"schema"`
	Baseline *benchSnapshot `json:"baseline,omitempty"`
	Current  *benchSnapshot `json:"current"`
	// History holds every superseded "current" snapshot, oldest first;
	// each -benchjson run appends the previous current before replacing
	// it, preserving the perf trajectory across PRs.
	History []*benchSnapshot `json:"history,omitempty"`
	// PolicyComparison records the dispatch-policy laboratory on a fixed
	// reference point (Cholesky, 2000-task budget, seed 42, 64 cores),
	// keyed "machine/policy": every policy runs on every policyMachines
	// entry, so each row compares like with like. Unlike the host-time
	// results above these are simulated, deterministic numbers — they only
	// change when simulation semantics change, so a diff here is a
	// semantic diff, not measurement noise.
	PolicyComparison map[string]policyPoint `json:"policy_comparison,omitempty"`
}

// policyPoint is one row of the policy comparison: the makespan and the
// scheduled work under one dispatch policy.
type policyPoint struct {
	Cycles          uint64  `json:"cycles"`
	WorkCycles      uint64  `json:"work_cycles"`
	TotalWorkCycles uint64  `json:"total_work_cycles"`
	Speedup         float64 `json:"speedup"`
}

// policyMachines are the reference machines of the policy comparison: 64
// plain cores, and the same 64 cores with a quarter of them at 2x speed
// (tssim -classes fast:16@2).
var policyMachines = []struct {
	name    string
	classes []tss.WorkerClass
}{
	{"plain", nil},
	{"fast:16@2", []tss.WorkerClass{{Name: "fast", Count: 16, Speed: 2}}},
}

// measurePolicies runs the policy-comparison reference point for every
// built-in dispatch policy on every reference machine.
func measurePolicies() (map[string]policyPoint, error) {
	build := workloads.Cholesky(2000, 42)
	out := make(map[string]policyPoint, len(policyMachines)*len(tss.PolicyNames()))
	for _, m := range policyMachines {
		for _, policy := range tss.PolicyNames() {
			cfg := tss.DefaultConfig().WithCores(64)
			cfg.Memory = false
			cfg.Backend.Policy = policy
			cfg.Backend.WorkerClasses = m.classes
			res, err := tss.RunTasks(build.Tasks, cfg)
			if err != nil {
				return nil, fmt.Errorf("policy comparison (%s on %s): %w", policy, m.name, err)
			}
			out[m.name+"/"+policy] = policyPoint{
				Cycles:          res.Cycles,
				WorkCycles:      res.Dispatch.WorkCycles,
				TotalWorkCycles: res.TotalWorkCycles,
				Speedup:         float64(res.TotalWorkCycles) / float64(res.Cycles),
			}
		}
	}
	return out, nil
}

// point converts a benchmark result; per-simulated-task rates are derived
// when the bench reported a "tasks/op" metric (benchsuite.ReportPerTask).
func point(r testing.BenchmarkResult) benchPoint {
	p := benchPoint{
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
	}
	if tasks := r.Extra["tasks/op"]; tasks > 0 {
		p.TasksPerOp = tasks
		p.NsPerTask = p.NsPerOp / tasks
		p.AllocsPerTask = p.AllocsPerOp / tasks
	}
	return p
}

// repeated runs bench benchRepeats times and returns the median run by
// ns/op, with the fastest and slowest runs' ns/op and ns/task.
func repeated(bench func(*testing.B)) benchPoint {
	runs := make([]benchPoint, benchRepeats)
	for i := range runs {
		runs[i] = point(testing.Benchmark(bench))
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp < runs[j].NsPerOp })
	p := runs[len(runs)/2]
	lo, hi := runs[0], runs[len(runs)-1]
	p.NsPerOpMin, p.NsPerOpMax = lo.NsPerOp, hi.NsPerOp
	p.NsPerTaskMin, p.NsPerTaskMax = lo.NsPerTask, hi.NsPerTask
	return p
}

// runBenchJSON measures the substrate benches and writes/updates the JSON
// file at path. note labels the snapshot (use it when the measured code
// changed); an empty note records just the date and Go version.
func runBenchJSON(path, note string) error {
	results := map[string]benchPoint{
		"engine_schedule_fire":          repeated(benchsuite.EngineScheduleFire),
		"engine_schedule_pop":           repeated(benchsuite.EngineSchedulePop),
		"engine_mixed_horizons":         repeated(benchsuite.EngineMixedHorizons),
		"server_pipeline":               repeated(benchsuite.ServerPipeline),
		"frontend_decode":               repeated(benchsuite.FrontendDecode),
		"frontend_decode_critical_path": repeated(benchsuite.FrontendDecodeCriticalPath),
	}

	current := &benchSnapshot{
		Note:    note,
		Date:    time.Now().UTC().Format("2006-01-02"),
		Go:      runtime.Version(),
		Nproc:   runtime.NumCPU(),
		Repeats: benchRepeats,
		Results: results,
	}
	out := benchFile{Schema: "tasksuperscalar-bench/v1", Current: current}
	pc, err := measurePolicies()
	if err != nil {
		return err
	}
	out.PolicyComparison = pc

	// Preserve the committed baseline and trajectory: the previous
	// "current" snapshot is appended to history rather than overwritten.
	// The one exception is a same-day rerun with the same note and Go
	// version — a re-measurement of the same change — which replaces the
	// previous current instead, so local iteration does not pollute the
	// per-PR history (distinct changes should carry distinct -benchnote
	// labels).
	if raw, err := os.ReadFile(path); err == nil {
		var prev benchFile
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("tsbench: parsing existing %s: %w", path, err)
		}
		out.Baseline = prev.Baseline
		out.History = prev.History
		if c := prev.Current; c != nil &&
			!(c.Date == current.Date && c.Note == current.Note && c.Go == current.Go) {
			out.History = append(out.History, c)
		}
	}
	if out.Baseline == nil {
		seed := *current
		seed.Note = "seeded from first -benchjson run"
		out.Baseline = &seed
	}

	raw, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}

	// Human-readable summary next to the artifact.
	fd := results["frontend_decode"]
	fmt.Printf("benchjson written to %s\n", path)
	fmt.Printf("frontend decode: %.0f ns/task (median of %d, %.0f..%.0f), %.1f allocs/task\n",
		fd.NsPerTask, benchRepeats, fd.NsPerTaskMin, fd.NsPerTaskMax, fd.AllocsPerTask)
	for _, m := range policyMachines {
		for _, policy := range tss.PolicyNames() {
			key := m.name + "/" + policy
			p := pc[key]
			fmt.Printf("policy %-24s %.2fx speedup, %d cycle makespan, %d work cycles\n",
				key+":", p.Speedup, p.Cycles, p.WorkCycles)
		}
	}
	if b := out.Baseline.Results["frontend_decode"]; b.NsPerTask > 0 {
		fmt.Printf("vs baseline:     %.0f ns/task (%+.1f%%), %.1f allocs/task (%+.1f%%)\n",
			b.NsPerTask, 100*(fd.NsPerTask-b.NsPerTask)/b.NsPerTask,
			b.AllocsPerTask, 100*(fd.AllocsPerTask-b.AllocsPerTask)/b.AllocsPerTask)
	}
	return nil
}
