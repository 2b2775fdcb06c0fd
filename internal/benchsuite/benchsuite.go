// Package benchsuite holds the simulation-substrate benchmark bodies that
// are shared between the `go test -bench` suite and `tsbench -benchjson`.
// Both consumers measure exactly this code, so the perf trajectory
// committed in BENCH_engine.json cannot drift from what the benchmark
// suite runs.
package benchsuite

import (
	"runtime"
	"testing"
	"time"

	"tasksuperscalar/internal/sim"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

// ReportPerTask attaches host-time efficiency metrics — ns of wall clock
// and heap allocations per simulated task — to a run-loop benchmark. These
// are the numbers BENCH_engine.json tracks across PRs.
func ReportPerTask(b *testing.B, tasks int, run func()) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	total := float64(tasks) * float64(b.N)
	b.ReportMetric(float64(tasks), "tasks/op")
	b.ReportMetric(float64(elapsed.Nanoseconds())/total, "ns/task")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/task")
}

// EngineScheduleFire measures raw event throughput on the near-horizon
// path that dominates simulation (delays within the calendar window).
func EngineScheduleFire(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Cycle(i%64), fn)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// EngineSchedulePop interleaves one schedule with one pop — the engine's
// steady-state rhythm, with no queue growth.
func EngineSchedulePop(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	e.Schedule(1, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Cycle(1+i%37), fn)
		e.Step()
	}
	e.Run()
}

// EngineMixedHorizons stresses the split between the calendar window and the
// far heap: most events land near the clock, a steady minority at
// task-runtime horizons far beyond the window.
func EngineMixedHorizons(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	delays := [8]sim.Cycle{0, 16, 22, 100, 640, 4095, 96_000, 250_000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(delays[i%len(delays)], fn)
		if i%512 == 511 {
			e.Run()
		}
	}
	e.Run()
}

// EngineChurn1M keeps one million events in flight and measures
// schedule/pop throughput against that standing population.
func EngineChurn1M(b *testing.B) {
	const standing = 1 << 20
	e := sim.NewEngine()
	fn := func() {}
	for i := 0; i < standing; i++ {
		// Spread the standing population across near and far horizons.
		e.Schedule(sim.Cycle(1+(i%200_000)), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(sim.Cycle(1+i%1024), fn)
		e.Step()
	}
	b.StopTimer()
	e.Run()
}

// ServerPipeline measures serial-server message processing (the
// module-controller hot path).
func ServerPipeline(b *testing.B) {
	e := sim.NewEngine()
	srv := sim.NewServer(e, func(int) sim.Cycle { return 16 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Submit(i)
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
	if srv.Served() != uint64(b.N) {
		b.Fatalf("served %d of %d", srv.Served(), b.N)
	}
}

// FrontendDecode measures raw frontend decode throughput on the reference
// workload (cycles of simulated work per simulated task are reported by
// Fig12/13; this reports host ns and allocations per simulated task).
func FrontendDecode(b *testing.B) {
	build := workloads.Cholesky(2000, 42)
	cfg := tss.DefaultConfig().WithCores(256)
	cfg.Memory = false
	b.ReportAllocs()
	ReportPerTask(b, len(build.Tasks), func() {
		if _, err := tss.RunTasks(build.Tasks, cfg); err != nil {
			b.Fatal(err)
		}
	})
}

// FrontendDecodeCriticalPath is FrontendDecode under the critical-path
// dispatch policy: the same workload and machine, but every ready task flows
// through the depth-bucketed priority queue (plus the one-time dependence-
// graph depth precompute). Tracks the host-time cost of the policy
// laboratory's most queue-intensive built-in against the FIFO baseline.
func FrontendDecodeCriticalPath(b *testing.B) {
	build := workloads.Cholesky(2000, 42)
	cfg := tss.DefaultConfig().WithCores(256)
	cfg.Memory = false
	cfg.Backend.Policy = tss.PolicyCriticalPath
	b.ReportAllocs()
	ReportPerTask(b, len(build.Tasks), func() {
		if _, err := tss.RunTasks(build.Tasks, cfg); err != nil {
			b.Fatal(err)
		}
	})
}
