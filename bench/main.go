// Command bench is the repository benchmark. It drives the task-superscalar
// simulator and the tssd service from outside, through their public
// functions, on four workloads, checks that every output is correct, and
// prints every metric by name with its unit. README.md in this directory
// describes the workloads, the metrics and how to compare two commits.
//
// From the repository root:
//
//	bash bench/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--spans F]
//
// With --workload it runs that workload in this process and prints, as its
// last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The metrics are the end-to-end ones, or with --trace 1 the per-layer ones
// from a traced run. Without --workload it runs every workload in a child
// process of its own, so peak memory belongs to one workload, and exits
// non-zero if any check failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// scale sizes the workloads. fullScale is what the benchmark runs; the smoke
// test shrinks it.
type scale struct {
	cholTasks, h264Tasks, simCores int

	experiment string // the sweep workload's experiment
	sweepCores int

	fleetMinTasks, fleetMaxTasks, fleetCores int
	fleetSweep                               string // the fleet's periodic sweep
	sweepEvery                               int    // every n-th job of client 0 is a sweep
	sampleEvery, sampleMax                   int    // fleet results checked against RunSpec

	setupReps      int // set-ups per run; setup_s is their median
	fleetSetupReps int // the same for fleet-jobs, whose set-up is short
	minOps         int // operations measured even after the window has passed

	probeSims      int           // simulations the traced run reruns one by one
	bodyTime       time.Duration // run time of each internal/sim benchmark body
	setupProbeReps int
	storeOps       int
}

var fullScale = scale{
	cholTasks: 20000, h264Tasks: 6000, simCores: 256,
	experiment: "fig16", sweepCores: 256,
	fleetMinTasks: 1000, fleetMaxTasks: 3000, fleetCores: 64,
	fleetSweep: "fig12", sweepEvery: 50, sampleEvery: 8, sampleMax: 64,
	setupReps: 4, fleetSetupReps: 10, minOps: 5,
	probeSims: 36, bodyTime: 200 * time.Millisecond, setupProbeReps: 21, storeOps: 100,
}

// workload is one set of inputs the benchmark runs; width is how many of
// its operations run at once.
type workload struct {
	name  string
	width int
	run   func(*run) error
}

var workloadList = []workload{
	{"cholesky-decode", 1, func(r *run) error {
		return runSimWorkload(r, "Cholesky", r.sc.cholTasks, r.sc.simCores, false)
	}},
	{"h264-memory", 1, func(r *run) error {
		return runSimWorkload(r, "H264", r.sc.h264Tasks, r.sc.simCores, true)
	}},
	{"fig16-sweep", sweepWidth, runSweepWorkload},
	{"fleet-jobs", fleetClients, runFleetWorkload},
}

// run is one workload run in progress.
type run struct {
	seed   int64
	window time.Duration // how long operations are measured
	sc     scale
	tr     *tracer // nil in an untraced run
	rep    *report
	tmp    string // temporary directory for journals and stores

	rssMu sync.Mutex
	rss   []float64 // resident set after each measured operation, MiB
}

// sampleRSS records the resident set after a measured operation.
func (r *run) sampleRSS() {
	mb := residentMB("VmRSS")
	r.rssMu.Lock()
	r.rss = append(r.rss, mb)
	r.rssMu.Unlock()
}

// setups runs n set-ups around the measured window: the first half before
// it (so the window measures a set-up program) and the rest after it. The
// host's speed drifts over seconds, and set-ups at both ends of the window
// keep their median from resting on one moment. setup returns the time its
// set-up took.
func (r *run) setups(n int, setup func() (time.Duration, error), window func() error) error {
	var times []float64
	timed := func() error {
		d, err := setup()
		times = append(times, d.Seconds())
		return err
	}
	for i := 0; i < (n+1)/2; i++ {
		if err := timed(); err != nil {
			return err
		}
	}
	if err := window(); err != nil {
		return err
	}
	for i := (n + 1) / 2; i < n; i++ {
		if err := timed(); err != nil {
			return err
		}
	}
	r.rep.set("setup_s", median(times), len(times), "median")
	return nil
}

// loop runs op until the window has passed and at least minOps ran, and
// returns each operation's time in ms (op measures itself, so checks after
// the timed call stay out of it) plus the loop's wall time.
func (r *run) loop(op func() time.Duration) ([]float64, time.Duration) {
	var lat []float64
	t0 := time.Now()
	for len(lat) < r.sc.minOps || time.Since(t0) < r.window {
		lat = append(lat, ms(op()))
		r.sampleRSS()
	}
	return lat, time.Since(t0)
}

// setLatency reports the operation latencies: the median, the tail at
// tailQ, and operations completed per second of the loop's wall time.
func (r *run) setLatency(lat []float64, wall time.Duration, tailQ float64) {
	r.rep.set("latency_ms.p50", quantile(lat, 0.5), len(lat), "p50")
	r.rep.set("latency_ms.tail", quantile(lat, tailQ), len(lat), pLabel(tailQ))
	r.rep.set("ops_per_s", float64(len(lat))/wall.Seconds(), len(lat), "over "+wall.Round(time.Millisecond).String())
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, seed int64, window time.Duration, traced bool, sc scale) (*run, error) {
	tmp, err := os.MkdirTemp("", "tsbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &run{seed: seed, window: window, sc: sc, rep: newReport(traced), tmp: tmp}
	if traced {
		r.tr = newTracer()
	}
	if err := w.run(r); err != nil {
		return r, fmt.Errorf("%s: %w", w.name, err)
	}
	r.rep.set("rss_mb", median(r.rss), len(r.rss), "median VmRSS after an operation")
	r.rep.setExtra("peak_rss_mb", "MB", residentMB("VmHWM"), 0, "VmHWM")
	return r, nil
}

func main() {
	name := flag.String("workload", "", "run only this workload, in this process (default: each in a child process)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spans := flag.String("spans", "", "with --trace 1, write the spans as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *spans))
	}
	var w workload
	for _, c := range workloadList {
		if c.name == *name {
			w = c
		}
	}
	if w.run == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	fmt.Println(hostRecord())
	fmt.Printf("workload %s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	r, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, fullScale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	res := r.rep.result()
	r.rep.writeText(os.Stdout)
	if r.tr != nil {
		r.tr.writeTable(os.Stdout)
		if *spans != "" {
			if err := r.tr.writeFile(*spans); err != nil {
				fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
				os.Exit(1)
			}
		}
	}
	fmt.Println(res.line())
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process, untraced and, with
// traced, once more traced; it prints each child's report and the tracing
// overhead, and returns the exit status.
func runAll(seed int64, seconds int, traced bool, spans string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(hostRecord())
	status := 0
	for _, w := range workloadList {
		args := []string{"--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0"}
		plain, ok := runChild(exe, args)
		if !ok {
			status = 1
		}
		if !traced {
			continue
		}
		args[len(args)-1] = "1"
		if spans != "" {
			args = append(args, "--spans", spans+"."+w.name+".json")
		}
		tracedOut, ok := runChild(exe, args)
		if !ok {
			status = 1
		}
		fmt.Printf("tracing overhead, %s (traced / untraced)\n", w.name)
		untracedE2E := e2eValues(plain)
		for _, d := range endToEnd {
			u, t := untracedE2E[d.name], e2eValues(tracedOut)[d.name]
			if u != 0 {
				fmt.Printf("  %-18s %12.6g -> %12.6g %-4s (%+.1f%%)\n", d.name, u, t, d.unit, 100*(t/u-1))
			}
		}
	}
	if status != 0 {
		fmt.Println("FAILED: a workload failed its checks or did not run")
	}
	return status
}

// runChild runs the benchmark in a child process, copies its output, and
// reports whether it exited 0 with a correct result.
func runChild(exe string, args []string) ([]byte, bool) {
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	os.Stdout.Write(out.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", strings.Join(args, " "), err)
		return out.Bytes(), false
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil || !res.Correct {
		return out.Bytes(), false
	}
	return out.Bytes(), true
}

// e2eValues reads the end-to-end lines of a child's text report.
func e2eValues(out []byte) map[string]float64 {
	vals := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 3 && f[0] == "e2e" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				vals[f[1]] = v
			}
		}
	}
	return vals
}
