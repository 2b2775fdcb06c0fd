// Benchmark harness: one testing.B benchmark per table and figure of the
// paper (regenerating the same rows/series via internal/experiments), plus
// ablation benches for the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// The per-figure benchmarks run the experiment in quick mode per iteration;
// cmd/tsbench -full regenerates the paper-scale outputs.
package main

import (
	"io"
	"testing"

	"tasksuperscalar/internal/benchsuite"
	"tasksuperscalar/internal/experiments"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 42, Cores: 256}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (benchmark task statistics).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig12 regenerates Figure 12 (decode rate vs parallelism,
// Cholesky and H264).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (average decode rate vs parallelism).
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14 regenerates Figure 14 (speedup vs total ORT capacity).
func BenchmarkFig14(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15 (speedup vs total TRS capacity).
func BenchmarkFig15(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16 (hardware vs software speedups).
func BenchmarkFig16(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkHeadline regenerates the abstract's headline numbers.
func BenchmarkHeadline(b *testing.B) { runExperiment(b, "headline") }

// BenchmarkChains regenerates the consumer-chain statistics (§IV.B).
func BenchmarkChains(b *testing.B) { runExperiment(b, "chains") }

// --- ablation benches: design choices from DESIGN.md §5 ---

// ablationRun measures Cholesky decode rate and speedup under a config
// mutation, reporting cycles/task and speedup as custom metrics.
func ablationRun(b *testing.B, mutate func(cfg *tss.Config)) {
	b.Helper()
	build := workloads.Cholesky(4000, 42)
	var decode, speed float64
	for i := 0; i < b.N; i++ {
		cfg := tss.DefaultConfig().WithCores(256)
		cfg.Memory = false
		mutate(&cfg)
		res, err := tss.RunTasks(build.Tasks, cfg)
		if err != nil {
			b.Fatal(err)
		}
		decode = res.DecodeRateCycles
		speed = float64(tss.SequentialCycles(build.Tasks)) / float64(res.Cycles)
	}
	b.ReportMetric(decode, "decode-cy/task")
	b.ReportMetric(speed, "speedup")
}

// BenchmarkAblationBaseline is the default pipeline (8 TRS / 2 ORT,
// chaining and renaming on).
func BenchmarkAblationBaseline(b *testing.B) {
	ablationRun(b, func(cfg *tss.Config) {})
}

// scratchReuseProgram is the renaming stress: producers cycle through a
// small pool of scratch output buffers (register-style reuse). Renaming
// breaks the WaR/WaW hazards on the pool; without it parallelism collapses
// to roughly the pool size.
func scratchReuseProgram() *tss.Program {
	p := tss.NewProgram()
	k := p.Kernel("stage")
	const blockBytes = 8 << 10
	scratch := make([]tss.Addr, 8)
	for i := range scratch {
		scratch[i] = p.Alloc(blockBytes)
	}
	for i := 0; i < 2000; i++ {
		input := p.Alloc(blockBytes)
		s := scratch[i%len(scratch)]
		p.Spawn(k, tss.Microseconds(30), tss.In(input, blockBytes), tss.Out(s, blockBytes))
		p.Spawn(k, tss.Microseconds(30), tss.In(s, blockBytes), tss.Out(p.Alloc(blockBytes), blockBytes))
	}
	return p
}

func renamingAblation(b *testing.B, renaming bool) {
	b.Helper()
	p := scratchReuseProgram()
	var speed float64
	for i := 0; i < b.N; i++ {
		cfg := tss.DefaultConfig().WithCores(256)
		cfg.Memory = false
		cfg.Frontend.Renaming = renaming
		res, err := tss.Run(p, cfg)
		if err != nil {
			b.Fatal(err)
		}
		speed = float64(tss.SequentialCycles(p.Tasks())) / float64(res.Cycles)
	}
	b.ReportMetric(speed, "speedup")
}

// BenchmarkAblationRenaming runs the scratch-reuse stress with OVT renaming
// (anti- and output-dependencies broken).
func BenchmarkAblationRenaming(b *testing.B) { renamingAblation(b, true) }

// BenchmarkAblationNoRenaming disables OVT renaming on the same stress:
// WaR/WaW hazards on the scratch pool serialize execution.
func BenchmarkAblationNoRenaming(b *testing.B) { renamingAblation(b, false) }

func chainingAblation(b *testing.B, chaining bool) {
	b.Helper()
	// KMeans broadcasts each centroids version to 512 readers: the
	// chaining trade-off (forwarding latency vs producer-TRS load) shows
	// up in decode rate and makespan.
	build := workloads.KMeans(6000, 42)
	var speed, decode float64
	for i := 0; i < b.N; i++ {
		cfg := tss.DefaultConfig().WithCores(256)
		cfg.Memory = false
		cfg.Frontend.Chaining = chaining
		res, err := tss.RunTasks(build.Tasks, cfg)
		if err != nil {
			b.Fatal(err)
		}
		speed = float64(tss.SequentialCycles(build.Tasks)) / float64(res.Cycles)
		decode = res.DecodeRateCycles
	}
	b.ReportMetric(speed, "speedup")
	b.ReportMetric(decode, "decode-cy/task")
}

// BenchmarkAblationChaining uses the paper's consumer chaining on a
// broadcast-heavy workload.
func BenchmarkAblationChaining(b *testing.B) { chainingAblation(b, true) }

// BenchmarkAblationNoChaining replaces consumer chaining with per-operand
// consumer lists held at the producer on the same workload.
func BenchmarkAblationNoChaining(b *testing.B) { chainingAblation(b, false) }

// BenchmarkAblationSingleTRS serializes all task-graph operations in one
// reservation station (the Figure 13 asymmetry: many ORTs cannot compensate
// for one TRS).
func BenchmarkAblationSingleTRS(b *testing.B) {
	ablationRun(b, func(cfg *tss.Config) {
		cfg.Frontend.NumTRS = 1
		cfg.Frontend.TRSBytesEach = 6 << 20
		cfg.Frontend.NumORT = 8
		cfg.Frontend.ORTBytesEach = 64 << 10
		cfg.Frontend.OVTBytesEach = 64 << 10
	})
}

// BenchmarkAblationNoPrefetch disables the Carbon-like local-queue
// prefetching (local queue depth 1: dispatch latency exposed per task).
func BenchmarkAblationNoPrefetch(b *testing.B) {
	ablationRun(b, func(cfg *tss.Config) { cfg.Backend.LocalQueueDepth = 1 })
}

// BenchmarkAblationWithMemory enables the full coherent memory hierarchy
// (operand staging through L1/L2/ring instead of trace burst mode).
func BenchmarkAblationWithMemory(b *testing.B) {
	ablationRun(b, func(cfg *tss.Config) { cfg.Memory = true })
}

// BenchmarkAblationStealing enables local-queue task stealing (Carbon
// supports it; the paper's backend does not — §IV.B.5).
func BenchmarkAblationStealing(b *testing.B) {
	ablationRun(b, func(cfg *tss.Config) { cfg.Backend.Stealing = true })
}

// BenchmarkAblationHeterogeneous models the heterogeneous-CMP direction of
// the paper's conclusion: half the cores (the first 128, one worker class)
// run at 60% speed; the dataflow scheduler absorbs the imbalance without
// any code change.
func BenchmarkAblationHeterogeneous(b *testing.B) {
	ablationRun(b, func(cfg *tss.Config) {
		cfg.Backend.WorkerClasses = []tss.WorkerClass{{Name: "slow", Count: cfg.Cores / 2, Speed: 0.6}}
	})
}

// --- microbenches: substrate hot paths ---

// BenchmarkFrontendDecode measures raw frontend decode throughput
// (cycles of simulated work per simulated task are reported by Fig12/13;
// this reports host ns and allocations per simulated task). The body is
// shared with `tsbench -benchjson` via internal/benchsuite.
func BenchmarkFrontendDecode(b *testing.B) { benchsuite.FrontendDecode(b) }

// BenchmarkFrontendDecodeCriticalPath is the same decode run under the
// critical-path dispatch policy — the policy-laboratory trajectory in
// BENCH_engine.json.
func BenchmarkFrontendDecodeCriticalPath(b *testing.B) { benchsuite.FrontendDecodeCriticalPath(b) }

// BenchmarkSoftwareRuntime measures the software-baseline path.
func BenchmarkSoftwareRuntime(b *testing.B) {
	build := workloads.Cholesky(2000, 42)
	cfg := tss.DefaultConfig().WithCores(256)
	cfg.Memory = false
	cfg.Runtime = tss.SoftwareRuntime
	benchsuite.ReportPerTask(b, len(build.Tasks), func() {
		if _, err := tss.RunTasks(build.Tasks, cfg); err != nil {
			b.Fatal(err)
		}
	})
}
