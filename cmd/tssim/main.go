// tssim runs one benchmark workload on one machine configuration and prints
// the run's statistics.
//
// Usage:
//
//	tssim -workload cholesky -cores 256 -tasks 20000
//	tssim -workload h264 -runtime software -cores 128
//	tssim -workload matmul -trs 4 -ort 1 -memory
//	tssim -workload fft -save fft.trace        # save the task trace
//	tssim -load fft.trace -cores 64            # replay a saved trace
//	tssim -stream -tasks 1000000 -cores 64     # stream tasks lazily
//	tssim -remote http://host:7077 -workload h264   # run on a tssd daemon
//	tssim -workload fft -cpuprofile cpu.out -memprofile mem.out  # profile the run
//
// With -stream the task stream is generated lazily (the STAP-like CPI
// stream) and executed through tss.RunStream, so memory stays bounded by
// the pipeline's in-flight window however long the stream is.
//
// With -remote the simulation is submitted to a tssd daemon (cmd/tssd)
// instead of running in-process: progress streams back live, and a repeat of
// an identical run is answered from the daemon's content-addressed result
// cache without re-simulating.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tasksuperscalar/internal/prof"
	"tasksuperscalar/internal/service"
	"tasksuperscalar/internal/trace"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

func main() {
	var (
		workload = flag.String("workload", "cholesky", "benchmark name (Table I)")
		runtime  = flag.String("runtime", "hardware", "hardware | software | sequential")
		cores    = flag.Int("cores", 256, "worker cores")
		tasks    = flag.Int("tasks", 20000, "approximate task budget")
		seed     = flag.Int64("seed", 42, "workload seed")
		numTRS   = flag.Int("trs", 8, "number of task reservation stations")
		numORT   = flag.Int("ort", 2, "number of ORT/OVT pairs")
		trsKB    = flag.Int("trskb", 768, "eDRAM per TRS (KB)")
		ortKB    = flag.Int("ortkb", 256, "eDRAM per ORT (KB)")
		memory   = flag.Bool("memory", false, "model the full memory hierarchy")
		policy   = flag.String("policy", "", "backend dispatch policy: "+strings.Join(tss.PolicyNames(), " | ")+" (default fifo)")
		classes  = flag.String("classes", "", "heterogeneous worker classes, e.g. 'fast:8@2,slow:24@0.5' or 'gpu:4@1(4,0.25)'")
		saveTo   = flag.String("save", "", "write the generated task trace to this file and exit (.json for JSON)")
		loadFrom = flag.String("load", "", "replay a task trace from this file instead of generating")
		stream   = flag.Bool("stream", false, "generate tasks lazily and run via the streaming frontend path")
		remote   = flag.String("remote", "", "submit the run to a tssd daemon at this base URL instead of simulating locally")
		token    = flag.String("token", "", "bearer token for the remote daemon (with -remote against an authenticated tssd)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	defer prof.Start(*cpuProf, *memProf)()

	if *remote != "" {
		// A remote run is described by a job spec, not a local build;
		// reject flags that only make sense in-process.
		conflicts := map[string]string{
			"stream": "-remote submits recorded workloads only",
			"save":   "-remote does not materialize a local trace",
			"load":   "-remote regenerates the workload on the daemon",
		}
		flag.Visit(func(f *flag.Flag) {
			if why, ok := conflicts[f.Name]; ok {
				fmt.Fprintf(os.Stderr, "tssim: -%s cannot be combined with -remote (%s)\n", f.Name, why)
				os.Exit(2)
			}
		})
		runRemote(*remote, *token, *workload, *tasks, *seed, *runtime, *cores, *numTRS, *numORT, *trsKB, *ortKB, *memory,
			*policy, parseClasses(*classes))
		return
	}

	if *stream {
		// The streaming path generates its own workload and models no
		// memory hierarchy; reject flags it would otherwise silently
		// ignore.
		conflicts := map[string]string{
			"memory":   "-stream models no memory hierarchy",
			"workload": "-stream always generates the CPI stream",
			"save":     "-stream does not record a trace",
			"load":     "-stream generates tasks instead of replaying",
		}
		flag.Visit(func(f *flag.Flag) {
			if why, ok := conflicts[f.Name]; ok {
				fmt.Fprintf(os.Stderr, "tssim: -%s cannot be combined with -stream (%s)\n", f.Name, why)
				os.Exit(2)
			}
		})
		runStreaming(*tasks, *seed, machine(*runtime, *cores, *numTRS, *numORT, *trsKB, *ortKB, false,
			*policy, *classes))
		return
	}

	var b *workloads.Build
	if *loadFrom != "" {
		f, err := os.Open(*loadFrom)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tssim: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		var tr *trace.Trace
		if strings.HasSuffix(*loadFrom, ".json") {
			tr, err = trace.ReadJSON(f)
		} else {
			tr, err = trace.ReadBinary(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tssim: %v\n", err)
			os.Exit(1)
		}
		reg, tasks := tr.Materialize()
		b = &workloads.Build{Name: tr.Name, Reg: reg, Tasks: tasks}
	} else {
		wl, ok := workloads.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "tssim: unknown workload %q; available:\n", *workload)
			for _, w := range workloads.All() {
				fmt.Fprintf(os.Stderr, "  %-10s %s\n", w.Name, w.Description)
			}
			os.Exit(2)
		}
		b = wl.Gen(*tasks, *seed)
	}
	fmt.Println(workloads.Describe(b))
	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tssim: %v\n", err)
			os.Exit(1)
		}
		tr := trace.FromTasks(b.Name, b.Reg, b.Tasks)
		if strings.HasSuffix(*saveTo, ".json") {
			err = tr.WriteJSON(f)
		} else {
			err = tr.WriteBinary(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tssim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *saveTo)
		return
	}

	cfg := machine(*runtime, *cores, *numTRS, *numORT, *trsKB, *ortKB, *memory, *policy, *classes)
	res, err := tss.RunTasks(b.Tasks, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tssim: %v\n", err)
		os.Exit(1)
	}
	seq := tss.SequentialCycles(b.Tasks)
	fmt.Printf("runtime:        %s on %d cores\n", cfg.Runtime, res.Cores)
	printPolicy(res.Dispatch, cfg.Backend.WorkerClasses)
	fmt.Printf("tasks executed: %d\n", res.Tasks)
	fmt.Printf("makespan:       %d cycles (%.2f ms at 3.2 GHz)\n",
		res.Cycles, float64(res.Cycles)/3.2e6)
	fmt.Printf("speedup:        %.1fx over sequential work (%d cycles)\n",
		float64(seq)/float64(res.Cycles), seq)
	if res.DecodeRateCycles > 0 {
		fmt.Printf("decode rate:    %.0f cycles/task (%.0f ns)\n",
			res.DecodeRateCycles, res.DecodeRateNs())
	}
	fmt.Printf("task window:    max %d in-flight tasks\n", res.WindowMax)
	fmt.Printf("utilization:    %.1f%% of cores busy (time-averaged)\n", res.Utilization*100)
	if cfg.Runtime == tss.HardwarePipeline {
		fs := res.Frontend
		fmt.Printf("frontend:       %d renames, %d copy-backs, %d in-place unblocks\n",
			fs.Renames, fs.CopyBacks, fs.InPlaceUnblocks)
		fmt.Printf("                ORT stalls %d, OVT stalls %d, fragmentation %.0f%%\n",
			fs.ORTStallEvents, fs.OVTStallEvents, fs.InternalFragmentation*100)
		fmt.Printf("utilization:    gateway %.0f%%, busiest TRS %.0f%%, ORT %.0f%%, OVT %.0f%%\n",
			fs.GatewayUtil*100, fs.TRSUtil*100, fs.ORTUtil*100, fs.OVTUtil*100)
	}
	if *memory {
		fmt.Printf("memory:         %d fetches (%d L1 object hits), %d invalidations, %d DMA copies, %.1f MB moved\n",
			res.Mem.Fetches, res.Mem.L1ObjHits, res.Mem.Invalidations, res.Mem.DMACopies,
			float64(res.Mem.BytesMoved)/(1<<20))
	}
}

// machine builds the simulated machine the flags describe, exiting with
// usage on bad -classes syntax or an unknown -runtime.
func machine(runtimeKind string, cores, numTRS, numORT, trsKB, ortKB int, memory bool,
	policy, classes string) tss.Config {
	cfg := tss.DefaultConfig().WithCores(cores)
	cfg.Memory = memory
	cfg.Backend.Policy = policy
	cfg.Backend.WorkerClasses = parseClasses(classes)
	cfg.Frontend.NumTRS = numTRS
	cfg.Frontend.NumORT = numORT
	cfg.Frontend.TRSBytesEach = uint64(trsKB) << 10
	cfg.Frontend.ORTBytesEach = uint64(ortKB) << 10
	cfg.Frontend.OVTBytesEach = uint64(ortKB) << 10
	switch runtimeKind {
	case "hardware":
		cfg.Runtime = tss.HardwarePipeline
	case "software":
		cfg.Runtime = tss.SoftwareRuntime
	case "sequential":
		cfg.Runtime = tss.Sequential
	default:
		fmt.Fprintf(os.Stderr, "tssim: unknown runtime %q\n", runtimeKind)
		os.Exit(2)
	}
	return cfg
}

// parseClasses parses the -classes flag, exiting with usage on bad syntax.
func parseClasses(s string) []tss.WorkerClass {
	wc, err := tss.ParseWorkerClasses(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tssim: -classes: %v\n", err)
		os.Exit(2)
	}
	return wc
}

// printPolicy reports the run's resolved dispatch policy, its counters and
// the worker classes. The lines are printed only for non-default machines,
// so default runs keep their pre-policy output byte-identical (the
// committed determinism goldens hash it).
func printPolicy(ds tss.DispatchStats, classes []tss.WorkerClass) {
	if ds.Policy == tss.PolicyFIFO && len(classes) == 0 {
		return
	}
	fmt.Printf("policy:         %s (%d dispatches, ready peak %d", ds.Policy, ds.Dispatches, ds.ReadyPeak)
	if ds.MaxDepth > 0 {
		fmt.Printf(", max chain depth %d", ds.MaxDepth)
	}
	if ds.AffineDispatches > 0 {
		fmt.Printf(", affine %d", ds.AffineDispatches)
	}
	if ds.SpecDispatches > 0 {
		fmt.Printf(", speculated %d validated %d", ds.SpecDispatches, ds.SpecValidated)
	}
	fmt.Println(")")
	if len(classes) > 0 {
		fmt.Printf("classes:        ")
		for i, c := range classes {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s x%d @%gx", c.Name, c.Count, c.Speed)
		}
		fmt.Printf(" (scheduled work %d cycles)\n", ds.WorkCycles)
	}
}

// cancelRemote best-effort cancels a remote job (used on Ctrl-C: the
// interrupted context is already dead, so the DELETE rides a fresh one).
func cancelRemote(cl *service.Client, prog, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if st, err := cl.Cancel(ctx, id); err != nil {
		fmt.Fprintf(os.Stderr, "%s: interrupted; cancelling remote job %s failed: %v\n", prog, id, err)
	} else {
		fmt.Fprintf(os.Stderr, "%s: interrupted; remote job %s is %s\n", prog, id, st.Status)
	}
}

// runRemote submits the run to a tssd daemon, streams progress, and prints
// the canonical result (noting whether it was served from the result cache).
// Ctrl-C cancels the remote job cooperatively before exiting.
func runRemote(base, token, workload string, tasks int, seed int64, runtimeKind string,
	cores, numTRS, numORT, trsKB, ortKB int, memory bool, policy string, classes []tss.WorkerClass) {
	spec := &service.JobSpec{
		Kind: service.KindSim,
		Sim: &service.SimSpec{
			Workload: workload,
			Tasks:    &tasks,
			Seed:     &seed,
			Machine: service.MachineSpec{
				Runtime: runtimeKind,
				Cores:   cores,
				TRS:     numTRS,
				ORT:     numORT,
				TRSKB:   trsKB,
				ORTKB:   ortKB,
				Memory:  memory,
				Policy:  policy,
				Classes: classes,
			},
		},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The retry policy rides through transient daemon trouble — a restart
	// mid-wait, a 503 while the queue drains — safely, because submissions
	// are content-addressed and therefore idempotent.
	cl := service.NewClient(base, service.WithToken(token),
		service.WithRetry(service.CLIRetry))
	st, err := cl.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tssim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("submitted %s (key %.12s…) to %s\n", st.ID, st.Key, base)
	if !st.Cached {
		id := st.ID
		st, err = cl.Wait(ctx, id, func(ev service.Event) {
			if ev.Type == "progress" {
				var p struct{ Done, Total uint64 }
				if json.Unmarshal(ev.Data, &p) == nil && p.Total > 0 {
					fmt.Printf("\rprogress:       %d/%d tasks (%.0f%%)", p.Done, p.Total,
						100*float64(p.Done)/float64(p.Total))
				}
			}
		})
		fmt.Println()
		if err != nil {
			if ctx.Err() != nil {
				cancelRemote(cl, "tssim", id)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "tssim: %v\n", err)
			os.Exit(1)
		}
		if st.Status != service.StatusDone {
			fmt.Fprintf(os.Stderr, "tssim: remote job %s: %s\n", st.Status, st.Error)
			os.Exit(1)
		}
	}
	var res service.SimResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		fmt.Fprintf(os.Stderr, "tssim: decoding result: %v\n", err)
		os.Exit(1)
	}
	source := "simulated remotely"
	if st.Cached {
		source = "served from result cache"
	}
	fmt.Printf("runtime:        %s on %d cores (%s)\n", res.Runtime, res.Cores, source)
	if res.Dispatch != nil {
		printPolicy(*res.Dispatch, classes)
	}
	fmt.Printf("tasks executed: %d\n", res.Tasks)
	fmt.Printf("makespan:       %d cycles (%.2f ms at 3.2 GHz)\n",
		res.Cycles, float64(res.Cycles)/3.2e6)
	fmt.Printf("speedup:        %.1fx over sequential work (%d cycles)\n",
		res.SpeedupOverWork, res.TotalWorkCycles)
	if res.DecodeRateCycles > 0 {
		fmt.Printf("decode rate:    %.0f cycles/task (%.0f ns)\n",
			res.DecodeRateCycles, tss.CyclesToNs(res.DecodeRateCycles))
	}
	fmt.Printf("task window:    max %d in-flight tasks\n", res.WindowMax)
	fmt.Printf("utilization:    %.1f%% of cores busy (time-averaged)\n", res.Utilization*100)
	if res.Mem != nil {
		fmt.Printf("memory:         %d fetches (%d L1 object hits), %d invalidations, %d DMA copies, %.1f MB moved\n",
			res.Mem.Fetches, res.Mem.L1ObjHits, res.Mem.Invalidations, res.Mem.DMACopies,
			float64(res.Mem.BytesMoved)/(1<<20))
	}
}

// runStreaming drives the lazily generated CPI stream through the
// streaming frontend path on cfg and reports the run with memory
// statistics. Streaming runs cannot precompute chain depths (the stream is
// lazy), so critical-path degrades to depth-0 priority; the other policies
// work unchanged.
func runStreaming(tasks int, seed int64, cfg tss.Config) {
	fmt.Printf("streaming %d STAP-like CPI tasks (seed %d)\n", tasks, seed)
	start := time.Now()
	res, err := tss.RunStream(workloads.NewCPIStream(tasks, seed), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tssim: %v\n", err)
		os.Exit(1)
	}
	// Collect first, so the heap line counts live data, not garbage the
	// run left behind.
	wall := time.Since(start)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("runtime:        %s on %d cores (streamed)\n", cfg.Runtime, res.Cores)
	printPolicy(res.Dispatch, cfg.Backend.WorkerClasses)
	fmt.Printf("tasks executed: %d\n", res.Tasks)
	fmt.Printf("makespan:       %d cycles (%.2f ms at 3.2 GHz)\n",
		res.Cycles, float64(res.Cycles)/3.2e6)
	if res.Cycles > 0 {
		fmt.Printf("speedup:        %.1fx over sequential work (%d cycles)\n",
			float64(res.TotalWorkCycles)/float64(res.Cycles), res.TotalWorkCycles)
	}
	if res.DecodeRateCycles > 0 {
		fmt.Printf("decode rate:    %.0f cycles/task (%.0f ns)\n",
			res.DecodeRateCycles, res.DecodeRateNs())
	}
	fmt.Printf("task window:    max %d in-flight tasks\n", res.WindowMax)
	fmt.Printf("utilization:    %.1f%% of cores busy (time-averaged)\n", res.Utilization*100)
	fmt.Printf("host:           %.1fs wall, %.1f MB heap in use\n",
		wall.Seconds(), float64(ms.HeapAlloc)/(1<<20))
}
