// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) and provides the parallel sweep engine that drives them.
//
// Each experiment is expressed in two phases. First it enumerates its
// parameter sweep as independent jobs — one simulated machine configuration
// times one generated workload per job — and executes them on a bounded
// worker pool (Options.Workers wide, GOMAXPROCS by default; see sweep.go).
// Every job regenerates its own workload from (budget, seed), so jobs share
// no mutable state and any interleaving is safe. Second, it formats the
// paper's rows serially from the ordered result slots, which makes the
// printed tables — and the Points recorded into an optional Sink for JSON
// output — byte-for-byte identical at every worker count.
//
// The benchmark harness (bench_test.go) and cmd/tsbench both drive this
// package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"

	"tasksuperscalar/internal/stats"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

// Options scale an experiment run.
type Options struct {
	// Quick shrinks workloads and sweeps for fast iteration (used by the
	// test-suite benchmarks); the full mode reproduces the paper-scale
	// runs.
	Quick bool
	// Seed makes workload generation deterministic.
	Seed int64
	// Cores overrides the largest machine size (default 256).
	Cores int
	// Workers bounds the sweep worker pool: 0 uses GOMAXPROCS, 1 runs
	// the sweep serially. Results are identical at every width.
	Workers int
	// Policy, when non-empty, runs every constituent simulation under the
	// named backend dispatch policy (tss.Config.Backend.Policy). Unlike
	// Workers it is machine state: it changes results and fingerprints,
	// making it a sweepable axis rather than an observer.
	Policy string
	// Sink, when non-nil, additionally collects every aggregated sweep
	// point for machine-readable (JSON) output.
	Sink *Sink
	// Context, when non-nil, cancels the sweep cooperatively between its
	// constituent simulations (running points finish; unstarted points
	// fail with the context's error).
	Context context.Context
	// RunSim, when non-nil, executes each constituent simulation instead
	// of the in-process engine — the hook the tssd service uses to resolve
	// sweep points through its content-addressed result store and fleet.
	// The contract is strict: the returned Result must be exactly what the
	// in-process engine would produce for the same SimJob (determinism
	// makes that checkable), or the sweep's byte-identity guarantee breaks.
	RunSim func(SimJob) (*tss.Result, error)
}

// SimJob is one constituent simulation of a sweep: a deterministic workload
// generation recipe plus the machine configuration to run it on. It is the
// decomposition unit handed to Options.RunSim — everything needed to
// regenerate and execute the point anywhere.
type SimJob struct {
	// Workload generates the task stream from (Tasks, Seed).
	Workload workloads.Info
	// Tasks is the generation budget; Seed the generator seed.
	Tasks int
	Seed  int64
	// Config is the simulated machine.
	Config tss.Config
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Paper string // what the paper reports, for context
	Run   func(w io.Writer, o Options) error
	// Extra marks laboratory extensions beyond the paper's evaluation:
	// they run by ID but are excluded from `-experiment all`, so the
	// committed determinism goldens (which hash the full "all" output)
	// stay pinned to the paper's figures.
	Extra bool
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Table I: benchmark task statistics",
			"avg data size, min/med/avg runtimes, decode-rate limit for 256p", Table1, false},
		{"fig12", "Figure 12: task decode rate vs pipeline parallelism (Cholesky, H264)",
			"rate falls with #TRS; H264 slower than Cholesky; ORTs help once TRSs scale", Fig12, false},
		{"fig13", "Figure 13: average task decode rate vs pipeline parallelism",
			"average over 9 benchmarks; 128p/256p rate limits at 375/187 cycles", Fig13, false},
		{"fig14", "Figure 14: speedup vs total ORT capacity",
			"saturation at 128 KB (Cholesky) and 512 KB (H264, average)", Fig14, false},
		{"fig15", "Figure 15: speedup vs total TRS capacity",
			"Cholesky peaks by 2 MB, H264 needs 6 MB; window of 12k-50k tasks", Fig15, false},
		{"fig16", "Figure 16: speedup vs cores, hardware pipeline vs software runtime",
			"hardware 95-255x (avg 183x) at 256p; software plateaus at 32-64p except Knn/H264", Fig16, false},
		{"headline", "Headline (abstract/§VI): decode <60ns, 7MB eDRAM, tens of thousands of in-flight tasks",
			"decode rate faster than 60 ns/task; ~50k-task windows in 7 MB", Headline, false},
		{"chains", "§IV.B.2: consumer chain lengths and TRS fragmentation",
			"95% of chains <=2 for 7 benchmarks (<=7 for the other two); ~20% TRS fragmentation", Chains, false},
		{ID: "policies", Title: "Policy laboratory: dispatch policy × core-count speedup grid",
			Paper: "extension beyond the paper (its backend is FIFO-only); HTS/TWC-inspired policies",
			Run:   Policies, Extra: true},
	}
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// budget picks a per-benchmark task budget.
func (o Options) budget(full int) int {
	if o.Quick {
		q := full / 8
		if q < 600 {
			q = 600
		}
		return q
	}
	return full
}

func (o Options) cores() int {
	if o.Cores > 0 {
		return o.Cores
	}
	return 256
}

// pool returns the run's worker pool, carrying the run's cancellation
// context when one was set.
func (o Options) pool() *Pool {
	p := NewPool(o.Workers)
	if o.Context != nil {
		p = p.WithContext(o.Context)
	}
	return p
}

// fullBudget is the default paper-scale run length per benchmark. H264 gets
// a longer stream so its window-size effects manifest (its distant
// parallelism only appears across many frames).
func fullBudget(name string) int {
	if name == "H264" {
		return 36000
	}
	return 20000
}

// baseConfig is the evaluation machine: Table II CMP with the paper's
// default frontend, in trace "burst" mode (task runtimes already include
// their memory time, as in the paper's trace-driven simulator).
func baseConfig(cores int) tss.Config {
	cfg := tss.DefaultConfig().WithCores(cores)
	cfg.Memory = false
	return cfg
}

// benchRun is one (workload, config) simulation job: it executes the point
// (locally, or through Options.RunSim when a delegate is installed) and
// returns the result together with the speedup over the stream's sequential
// lower bound. The speedup is derived from Result.TotalWorkCycles — for a
// complete run this equals tss.SequentialCycles of the generated stream, so
// the figure is computable from the result alone and both execution paths
// produce bit-identical numbers.
func benchRun(o Options, wl workloads.Info, budget int, seed int64, cfg tss.Config) (*tss.Result, float64, error) {
	if o.Policy != "" && cfg.Backend.Policy == "" {
		cfg.Backend.Policy = o.Policy
	}
	job := SimJob{Workload: wl, Tasks: budget, Seed: seed, Config: cfg}
	var res *tss.Result
	var err error
	if o.RunSim != nil {
		res, err = o.RunSim(job)
	} else {
		b := wl.Gen(budget, seed)
		res, err = tss.RunTasks(b.Tasks, cfg)
	}
	if err != nil {
		return nil, 0, err
	}
	sp := float64(res.TotalWorkCycles) / float64(res.Cycles)
	return res, sp, nil
}

// Table1 regenerates Table I from the workload generators.
func Table1(w io.Writer, o Options) error {
	all := workloads.All()
	ms := make([]workloads.Measured, len(all))
	err := o.pool().Do(len(all), func(i int) error {
		b := all[i].Gen(o.budget(fullBudget(all[i].Name)), o.Seed)
		ms[i] = workloads.MeasureTableI(b)
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Table I: benchmark applications and task statistics (measured from generators)\n")
	fmt.Fprintf(w, "%-10s %-18s %8s | %8s %7s %7s %7s | %10s\n",
		"Name", "Class", "Tasks", "Data KB", "Min us", "Med us", "Avg us", "Rate ns/t")
	var mins stats.Sample
	for i, wl := range all {
		m := ms[i]
		fmt.Fprintf(w, "%-10s %-18s %8d | %8.0f %7.0f %7.0f %7.0f | %10.0f\n",
			wl.Name, wl.Class, m.Tasks, m.DataKBAvg, m.MinUs, m.MedUs, m.AvgUs, m.RateNs256)
		fmt.Fprintf(w, "%-10s %-18s %8s | %8.0f %7.0f %7.0f %7.0f | %10.0f  (paper)\n",
			"", "", "", wl.Paper.DataKB, wl.Paper.MinUs, wl.Paper.MedUs, wl.Paper.AvgUs, wl.Paper.RateNs)
		mins.Add(m.MinUs)
		o.Sink.Record("table1", []Label{{"bench", wl.Name}}, map[string]float64{
			"tasks": float64(m.Tasks), "data_kb_avg": m.DataKBAvg,
			"min_us": m.MinUs, "med_us": m.MedUs, "avg_us": m.AvgUs,
			"rate_ns_256": m.RateNs256,
		})
	}
	fmt.Fprintf(w, "Average of min runtimes: %.0f us -> 256p target decode rate %.0f ns/task (paper: 15 us -> 58 ns)\n",
		mins.Mean(), mins.Mean()*1000/256)
	return nil
}

// decodeSweepConfig builds a frontend with the given parallelism. The TRS
// window stays at 6 MB total; ORTs and OVTs keep a generous fixed per-module
// capacity so capacity effects (Figure 14's subject) do not pollute the
// parallelism sweep.
func decodeSweepConfig(cores, numTRS, numORT int) tss.Config {
	cfg := baseConfig(cores)
	cfg.Frontend.NumTRS = numTRS
	cfg.Frontend.NumORT = numORT
	cfg.Frontend.TRSBytesEach = (6 << 20) / uint64(numTRS)
	cfg.Frontend.ORTBytesEach = 512 << 10
	cfg.Frontend.OVTBytesEach = 512 << 10
	return cfg
}

func sweepAxes(o Options) (trs []int, orts []int) {
	if o.Quick {
		return []int{1, 4, 16, 64}, []int{1, 4}
	}
	return []int{1, 2, 4, 8, 16, 32, 64}, []int{1, 2, 4, 8}
}

// decodeRates sweeps the decode rate of the given benchmarks over the
// (#TRS, #ORT) grid in parallel, returning rates[bench][trs][ort].
func decodeRates(names []workloads.Info, o Options) ([][][]float64, error) {
	trsAxis, ortAxis := sweepAxes(o)
	rates := make([][][]float64, len(names))
	for i := range rates {
		rates[i] = make([][]float64, len(trsAxis))
		for j := range rates[i] {
			rates[i][j] = make([]float64, len(ortAxis))
		}
	}
	n := len(names) * len(trsAxis) * len(ortAxis)
	err := o.pool().Do(n, func(i int) error {
		b := i / (len(trsAxis) * len(ortAxis))
		rest := i % (len(trsAxis) * len(ortAxis))
		ti := rest / len(ortAxis)
		oi := rest % len(ortAxis)
		res, _, err := benchRun(o, names[b], o.budget(4000), o.Seed,
			decodeSweepConfig(o.cores(), trsAxis[ti], ortAxis[oi]))
		if err != nil {
			return fmt.Errorf("%s at %d TRS / %d ORT: %w",
				names[b].Name, trsAxis[ti], ortAxis[oi], err)
		}
		rates[b][ti][oi] = res.DecodeRateCycles
		return nil
	})
	return rates, err
}

// Fig12 sweeps pipeline parallelism for Cholesky and H264.
func Fig12(w io.Writer, o Options) error {
	trsAxis, ortAxis := sweepAxes(o)
	var names []workloads.Info
	for _, n := range []string{"Cholesky", "H264"} {
		wl, _ := workloads.ByName(n)
		names = append(names, wl)
	}
	rates, err := decodeRates(names, o)
	if err != nil {
		return err
	}
	for b, wl := range names {
		fmt.Fprintf(w, "Figure 12 (%s): decode rate [cycles/task]\n", wl.Name)
		fmt.Fprintf(w, "%8s", "#TRS")
		for _, nort := range ortAxis {
			fmt.Fprintf(w, " %8s", fmt.Sprintf("%d ORT", nort))
		}
		fmt.Fprintln(w)
		for ti, ntrs := range trsAxis {
			fmt.Fprintf(w, "%8d", ntrs)
			for oi, nort := range ortAxis {
				fmt.Fprintf(w, " %8.0f", rates[b][ti][oi])
				o.Sink.Record("fig12", []Label{
					{"bench", wl.Name}, {"trs", strconv.Itoa(ntrs)}, {"ort", strconv.Itoa(nort)},
				}, map[string]float64{"decode_rate_cycles": rates[b][ti][oi]})
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig13 sweeps pipeline parallelism averaged over all nine benchmarks.
func Fig13(w io.Writer, o Options) error {
	trsAxis, ortAxis := sweepAxes(o)
	all := workloads.All()
	rates, err := decodeRates(all, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 13 (average of 9 benchmarks): decode rate [cycles/task]\n")
	fmt.Fprintf(w, "%8s", "#TRS")
	for _, nort := range ortAxis {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("%d ORT", nort))
	}
	fmt.Fprintln(w)
	for ti, ntrs := range trsAxis {
		fmt.Fprintf(w, "%8d", ntrs)
		for oi, nort := range ortAxis {
			var avg stats.Sample
			for b := range all {
				avg.Add(rates[b][ti][oi])
			}
			fmt.Fprintf(w, " %8.0f", avg.Mean())
			o.Sink.Record("fig13", []Label{
				{"trs", strconv.Itoa(ntrs)}, {"ort", strconv.Itoa(nort)},
			}, map[string]float64{"decode_rate_cycles_avg": avg.Mean()})
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "rate limits: 128 processors = 375 cycles/task, 256 processors = 187 cycles/task\n")
	return nil
}

// capacitySweep runs a speedup sweep over a frontend-capacity axis.
func capacitySweep(w io.Writer, o Options, id, title string, axis []uint64,
	configure func(cfg *tss.Config, capacity uint64), names []string) error {
	all := workloads.All()
	// speedups[cap][bench], computed in parallel.
	speedups := make([][]float64, len(axis))
	for i := range speedups {
		speedups[i] = make([]float64, len(all))
	}
	err := o.pool().Do(len(axis)*len(all), func(i int) error {
		ci, bi := i/len(all), i%len(all)
		cfg := baseConfig(o.cores())
		configure(&cfg, axis[ci])
		_, sp, err := benchRun(o, all[bi], o.budget(fullBudget(all[bi].Name)), o.Seed, cfg)
		if err != nil {
			return fmt.Errorf("%s at %s: %w", all[bi].Name, fmtBytes(axis[ci]), err)
		}
		speedups[ci][bi] = sp
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%10s", "capacity")
	for _, n := range names {
		fmt.Fprintf(w, " %9s", n)
	}
	fmt.Fprintf(w, " %9s\n", "Average")
	// The average column covers all nine benchmarks, like the paper.
	for ci, capBytes := range axis {
		fmt.Fprintf(w, "%10s", fmtBytes(capBytes))
		var allSp stats.Sample
		byName := map[string]float64{}
		for bi, wl := range all {
			allSp.Add(speedups[ci][bi])
			byName[wl.Name] = speedups[ci][bi]
			o.Sink.Record(id, []Label{
				{"capacity", fmtBytes(capBytes)}, {"bench", wl.Name},
			}, map[string]float64{"speedup": speedups[ci][bi]})
		}
		for _, n := range names {
			fmt.Fprintf(w, " %9.0f", byName[n])
		}
		fmt.Fprintf(w, " %9.0f\n", allSp.Mean())
		o.Sink.Record(id, []Label{{"capacity", fmtBytes(capBytes)}},
			map[string]float64{"speedup_avg": allSp.Mean()})
	}
	return nil
}

// Fig14 sweeps the total ORT capacity.
func Fig14(w io.Writer, o Options) error {
	axis := []uint64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	if o.Quick {
		axis = []uint64{16 << 10, 64 << 10, 256 << 10, 1 << 20}
	}
	return capacitySweep(w, o, "fig14",
		"Figure 14: speedup (over sequential) vs total ORT capacity [8 TRS / 2 ORT, 256p]",
		axis,
		func(cfg *tss.Config, capacity uint64) {
			cfg.Frontend.ORTBytesEach = capacity / uint64(cfg.Frontend.NumORT)
		},
		[]string{"Cholesky", "H264"})
}

// Fig15 sweeps the total TRS capacity.
func Fig15(w io.Writer, o Options) error {
	axis := []uint64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 6 << 20, 8 << 20}
	if o.Quick {
		axis = []uint64{128 << 10, 512 << 10, 2 << 20, 6 << 20}
	}
	return capacitySweep(w, o, "fig15",
		"Figure 15: speedup (over sequential) vs total TRS capacity [8 TRS / 2 ORT, 256p]",
		axis,
		func(cfg *tss.Config, capacity uint64) {
			cfg.Frontend.TRSBytesEach = capacity / uint64(cfg.Frontend.NumTRS)
		},
		[]string{"Cholesky", "H264"})
}

// Fig16 compares hardware-pipeline and software-runtime speedups at 32-256
// cores for every benchmark.
func Fig16(w io.Writer, o Options) error {
	coreAxis := []int{32, 64, 128, 256}
	if o.Quick {
		coreAxis = []int{32, 256}
	}
	all := workloads.All()
	kinds := []string{"hw", "sw"}
	// speedups[bench][kind][cores], computed in parallel.
	speedups := make([][][]float64, len(all))
	for i := range speedups {
		speedups[i] = make([][]float64, len(kinds))
		for k := range speedups[i] {
			speedups[i][k] = make([]float64, len(coreAxis))
		}
	}
	n := len(all) * len(kinds) * len(coreAxis)
	err := o.pool().Do(n, func(i int) error {
		bi := i / (len(kinds) * len(coreAxis))
		rest := i % (len(kinds) * len(coreAxis))
		ki := rest / len(coreAxis)
		ci := rest % len(coreAxis)
		cfg := baseConfig(coreAxis[ci])
		if kinds[ki] == "sw" {
			cfg.Runtime = tss.SoftwareRuntime
		}
		_, sp, err := benchRun(o, all[bi], o.budget(fullBudget(all[bi].Name)), o.Seed, cfg)
		if err != nil {
			return fmt.Errorf("%s %s %dp: %w", all[bi].Name, kinds[ki], coreAxis[ci], err)
		}
		speedups[bi][ki][ci] = sp
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Figure 16: speedup over sequential execution\n")
	fmt.Fprintf(w, "%-10s %-9s", "Benchmark", "Runtime")
	for _, c := range coreAxis {
		fmt.Fprintf(w, " %7dp", c)
	}
	fmt.Fprintln(w)
	avgAt := map[string]map[int]*stats.Sample{"hw": {}, "sw": {}}
	for _, c := range coreAxis {
		avgAt["hw"][c] = &stats.Sample{}
		avgAt["sw"][c] = &stats.Sample{}
	}
	label := func(kind string) string {
		if kind == "sw" {
			return "software"
		}
		return "task-ss"
	}
	for bi, wl := range all {
		for ki, kind := range kinds {
			fmt.Fprintf(w, "%-10s %-9s", wl.Name, label(kind))
			for ci, c := range coreAxis {
				sp := speedups[bi][ki][ci]
				avgAt[kind][c].Add(sp)
				fmt.Fprintf(w, " %8.0f", sp)
				o.Sink.Record("fig16", []Label{
					{"bench", wl.Name}, {"runtime", label(kind)}, {"cores", strconv.Itoa(c)},
				}, map[string]float64{"speedup": sp})
			}
			fmt.Fprintln(w)
		}
	}
	for _, kind := range kinds {
		fmt.Fprintf(w, "%-10s %-9s", "Average", label(kind))
		for _, c := range coreAxis {
			fmt.Fprintf(w, " %8.0f", avgAt[kind][c].Mean())
			// Aggregates carry a distinct value key and no bench label
			// (same convention as the capacity sweeps), so JSON consumers
			// grouping by bench never pick up a pseudo-benchmark.
			o.Sink.Record("fig16", []Label{
				{"runtime", label(kind)}, {"cores", strconv.Itoa(c)},
			}, map[string]float64{"speedup_avg": avgAt[kind][c].Mean()})
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Headline reproduces the abstract's claims on the default configuration.
func Headline(w io.Writer, o Options) error {
	cfg := baseConfig(o.cores())
	fe := cfg.Frontend
	eDRAM := uint64(fe.NumTRS)*fe.TRSBytesEach +
		uint64(fe.NumORT)*(fe.ORTBytesEach+fe.OVTBytesEach)
	all := workloads.All()
	type headlineRow struct {
		rateNs, speedup float64
		window          int64
	}
	rows := make([]headlineRow, len(all))
	err := o.pool().Do(len(all), func(i int) error {
		res, sp, err := benchRun(o, all[i], o.budget(fullBudget(all[i].Name)), o.Seed, cfg)
		if err != nil {
			return err
		}
		rows[i] = headlineRow{rateNs: res.DecodeRateNs(), speedup: sp, window: res.WindowMax}
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Headline: default pipeline = %d TRS + %d ORT/OVT, %s eDRAM (paper: 7 MB)\n",
		fe.NumTRS, fe.NumORT, fmtBytes(eDRAM))
	var rates, speeds stats.Sample
	var windows []int64
	for i, wl := range all {
		r := rows[i]
		rates.Add(r.rateNs)
		speeds.Add(r.speedup)
		windows = append(windows, r.window)
		fmt.Fprintf(w, "  %-10s decode %6.0f ns/task  speedup %5.0fx  window max %6d tasks\n",
			wl.Name, r.rateNs, r.speedup, r.window)
		o.Sink.Record("headline", []Label{{"bench", wl.Name}}, map[string]float64{
			"decode_ns": r.rateNs, "speedup": r.speedup, "window_max": float64(r.window),
		})
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	fmt.Fprintf(w, "decode rate: median %.0f ns/task (paper: <60 ns avg)\n", rates.Median())
	fmt.Fprintf(w, "speedups at %dp: %.0f-%.0fx, average %.0fx (paper: 95-255x, avg 183x)\n",
		o.cores(), speeds.Min(), speeds.Max(), speeds.Mean())
	fmt.Fprintf(w, "task windows: %d-%d tasks (paper: 12,000-50,000 at 6 MB TRS)\n",
		windows[0], windows[len(windows)-1])
	return nil
}

// Chains reports consumer-chain and TRS-fragmentation statistics (§IV.B).
func Chains(w io.Writer, o Options) error {
	cfg := baseConfig(o.cores())
	all := workloads.All()
	type chainRow struct {
		fracLE2, p95, frag float64
	}
	rows := make([]chainRow, len(all))
	err := o.pool().Do(len(all), func(i int) error {
		res, _, err := benchRun(o, all[i], o.budget(fullBudget(all[i].Name))/2, o.Seed, cfg)
		if err != nil {
			return err
		}
		fs := res.Frontend
		rows[i] = chainRow{fracLE2: fs.ChainFracAtMost2, p95: fs.ChainP95, frag: fs.InternalFragmentation}
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Consumer chains and TRS storage (paper: 95%% of chains <=2 for 7 of 9; ~20%% fragmentation)\n")
	fmt.Fprintf(w, "%-10s %12s %10s %14s\n", "Benchmark", "chains<=2", "chain p95", "fragmentation")
	for i, wl := range all {
		r := rows[i]
		fmt.Fprintf(w, "%-10s %11.0f%% %10.0f %13.0f%%\n",
			wl.Name, r.fracLE2*100, r.p95, r.frag*100)
		o.Sink.Record("chains", []Label{{"bench", wl.Name}}, map[string]float64{
			"chain_frac_le2": r.fracLE2, "chain_p95": r.p95, "fragmentation": r.frag,
		})
	}
	return nil
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}
