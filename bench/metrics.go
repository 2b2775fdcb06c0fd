package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one metric and its unit. The two tables are the contract
// with BENCHMARK.json at the repository root (bench_test.go checks that they
// agree): an untraced run of any workload prints every end-to-end metric, a
// traced run every per-layer metric.
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the simulator or of tssd sees. An
// operation is one simulation (cholesky-decode, h264-memory), one sweep
// (fig16-sweep) or one sim job from Submit to the return of Wait
// (fleet-jobs).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.tail", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_mb", "MB"},
}

// perLayer splits the work by module. Host times come from the traced run
// and from probes of one layer each; simulated counts come from the
// workload's own simulations (tss.Result) and are identical on every run of
// a seed. A layer the workload does not exercise reports 0 work.
var perLayer = []metricDef{
	{"sim.schedule_fire_ns", "ns"},
	{"sim.schedule_pop_ns", "ns"},
	{"sim.mixed_horizons_ns", "ns"},
	{"sim.server_msg_ns", "ns"},
	{"tss.setup_ms.c32", "ms"},
	{"tss.setup_ms.c64", "ms"},
	{"tss.setup_ms.c128", "ms"},
	{"tss.setup_ms.c256", "ms"},
	{"tss.run_ms.p50", "ms"},
	{"tss.allocs_per_task", "1/task"},
	{"tss.bytes_per_task", "B/task"},
	{"workloads.gen_ns_per_task", "ns"},
	{"core.decode_cycles_per_task", "cycles"},
	{"core.window_max", "tasks"},
	{"core.window_avg", "tasks"},
	{"core.ready_lag_avg_cycles", "cycles"},
	{"core.ort_stalls_per_task", "1/task"},
	{"core.ovt_stalls_per_task", "1/task"},
	{"core.renames_per_task", "1/task"},
	{"core.copybacks_per_task", "1/task"},
	{"core.trs_fragmentation", "ratio"},
	{"core.gateway_util", "ratio"},
	{"core.trs_util", "ratio"},
	{"core.ort_util", "ratio"},
	{"core.ovt_util", "ratio"},
	{"backend.ready_peak", "tasks"},
	{"backend.utilization", "ratio"},
	{"backend.work_cycles_per_task", "cycles"},
	{"mem.fetches_per_task", "1/task"},
	{"mem.l1_hit_ratio", "ratio"},
	{"mem.bytes_moved_per_task", "B/task"},
	{"mem.dram_bytes_per_task", "B/task"},
	{"mem.invalidations_per_task", "1/task"},
	{"mem.writebacks_per_task", "1/task"},
	{"softrt.decode_cycles_per_task", "cycles"},
	{"experiments.points", "count"},
	{"experiments.pool_busy_share", "ratio"},
	{"service.submit_ms.p50", "ms"},
	{"service.queue_ms.p50", "ms"},
	{"service.run_ms.p50", "ms"},
	{"service.relay_ms.p50", "ms"},
	{"service.runspec_ms.p50", "ms"},
	{"service.overhead_ms.p50", "ms"},
	{"service.store_put_us.p50", "us"},
	{"service.store_put_us.p99", "us"},
	{"service.store_get_us.p50", "us"},
	{"service.mem_hit_share", "ratio"},
	{"service.disk_hit_share", "ratio"},
	{"service.coalesced_share", "ratio"},
	{"service.shard_points", "count"},
	{"service.retries", "count"},
	{"service.settle_gap_ms", "ms"},
}

// measure is one reported number: n is its sample count (0 when it is not
// a statistic over samples) and note says which statistic it is.
type measure struct {
	value float64
	unit  string
	n     int
	note  string
}

// report collects one workload run's metrics and correctness checks. Every
// method is safe for concurrent use (the fleet clients share one).
type report struct {
	traced bool

	mu          sync.Mutex
	attempted   int
	failed      int
	failures    []string
	metrics     map[string]measure
	extras      []string // workload-specific metrics, printed but not in the JSON line
	extra       map[string]measure
	fingerprint string
}

func newReport(traced bool) *report {
	return &report{traced: traced, metrics: map[string]measure{}, extra: map[string]measure{}}
}

// op records one attempted operation; a non-nil err counts it as failed.
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check records one correctness gate as an operation of its own.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf(format, args...))
}

// set records a metric from one of the two tables.
func (r *report) set(name string, v float64, n int, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = measure{value: v, unit: unitOf(name), n: n, note: note}
}

// setExtra records a workload-specific metric that only the text shows.
func (r *report) setExtra(name, unit string, v float64, n int, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.extra[name]; !ok {
		r.extras = append(r.extras, name)
	}
	r.extra[name] = measure{value: v, unit: unit, n: n, note: note}
}

// setDefault records a metric the run did not measure otherwise.
func (r *report) setDefault(name string, v float64, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; !ok {
		r.metrics[name] = measure{value: v, unit: unitOf(name), note: note}
	}
}

func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is in neither table")
}

// table returns the metric table this run reports in its JSON line.
func (r *report) table() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// writeText prints the human-readable report: every metric by name with
// its unit and sample count, then the checks.
func (r *report) writeText(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	line := func(kind, name string, m measure) {
		detail := ""
		switch {
		case m.n > 0 && m.note != "":
			detail = fmt.Sprintf("(%s, n=%d)", m.note, m.n)
		case m.n > 0:
			detail = fmt.Sprintf("(n=%d)", m.n)
		case m.note != "":
			detail = "(" + m.note + ")"
		}
		fmt.Fprintf(w, "  %-6s %-32s %14.6g %-7s %s\n", kind, name, m.value, m.unit, detail)
	}
	// The end-to-end block is always printed: in a traced run it is the
	// traced run's own numbers, which set against an untraced run give the
	// tracing overhead.
	for _, d := range endToEnd {
		if m, ok := r.metrics[d.name]; ok {
			line("e2e", d.name, m)
		}
	}
	if r.traced {
		for _, d := range perLayer {
			if m, ok := r.metrics[d.name]; ok {
				line("layer", d.name, m)
			}
		}
	}
	for _, name := range r.extras {
		line("extra", name, r.extra[name])
	}
	if r.fingerprint != "" {
		fmt.Fprintf(w, "  %-6s %-32s %s\n", "check", "sim.fingerprint", r.fingerprint)
	}
	fmt.Fprintf(w, "  %-6s attempted=%d failed=%d\n", "check", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result builds the JSON line. A metric of the run's table that was never
// measured, or is not finite, is a harness bug: it is reported as a failed
// check and left out, never printed as a made-up number.
func (r *report) result() result {
	tab := r.table()
	finite := func(m measure, ok bool) bool { return ok && !math.IsNaN(m.value) && !math.IsInf(m.value, 0) }
	missing := []string{}
	r.mu.Lock()
	for _, d := range tab {
		if m, ok := r.metrics[d.name]; !finite(m, ok) {
			missing = append(missing, d.name)
		}
	}
	r.mu.Unlock()
	r.check(len(missing) == 0, "metrics not measured: %s", strings.Join(missing, ", "))

	r.mu.Lock()
	defer r.mu.Unlock()
	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(tab)),
	}
	for _, d := range tab {
		if m, ok := r.metrics[d.name]; finite(m, ok) {
			out.Metrics[d.name] = jsonMetric{Value: m.value, Unit: d.unit}
		}
	}
	return out
}

func (res result) line() string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // only float64s and strings: cannot fail
	}
	return string(b)
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func pLabel(q float64) string { return fmt.Sprintf("p%g", math.Round(q*1000)/10) }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
