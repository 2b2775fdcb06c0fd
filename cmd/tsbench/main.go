// tsbench regenerates the paper's tables and figures.
//
// Each experiment's parameter sweep runs as independent simulation jobs on
// a worker pool (one worker per CPU by default); the printed tables are
// byte-identical at every worker count.
//
// Usage:
//
//	tsbench -experiment all            # every table and figure (quick mode)
//	tsbench -experiment fig16 -full    # one experiment at paper scale
//	tsbench -experiment fig12 -workers 1   # force a serial sweep
//	tsbench -experiment all -json results.json  # also dump sweep points
//	tsbench -benchjson BENCH_engine.json   # substrate perf snapshot (JSON)
//	tsbench -remote http://host:7077 -experiment fig12  # run on a tssd daemon
//	tsbench -experiment fig12 -cpuprofile cpu.out  # profile an experiment
//	tsbench -list                      # show available experiments
//
// With -remote each experiment is submitted to a tssd daemon (cmd/tssd) as
// a sweep job: output lines stream back live, repeated identical runs are
// answered from the daemon's result cache, and -json still collects every
// sweep point from the returned payloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tasksuperscalar/internal/experiments"
	"tasksuperscalar/internal/prof"
	"tasksuperscalar/internal/service"
)

// cancelRemote best-effort cancels a remote job after an interrupt (the
// interrupted context is dead, so the DELETE rides a fresh one).
func cancelRemote(cl *service.Client, id string) {
	cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if st, err := cl.Cancel(cctx, id); err != nil {
		fmt.Fprintf(os.Stderr, "tsbench: interrupted; cancelling remote job %s failed: %v\n", id, err)
	} else {
		fmt.Fprintf(os.Stderr, "tsbench: interrupted; remote job %s is %s\n", id, st.Status)
	}
}

func main() {
	var (
		expID     = flag.String("experiment", "all", "experiment ID (or comma list, or 'all')")
		full      = flag.Bool("full", false, "run at paper scale instead of quick mode")
		list      = flag.Bool("list", false, "list experiments and exit")
		seed      = flag.Int64("seed", 42, "workload generation seed")
		cores     = flag.Int("cores", 256, "largest machine size")
		workers   = flag.Int("workers", 0, "sweep worker pool width (0 = one per CPU, 1 = serial)")
		policy    = flag.String("policy", "", "dispatch policy for every simulation that does not pin its own (default fifo)")
		jsonOut   = flag.String("json", "", "also write every sweep point to this file as JSON")
		benchJS   = flag.String("benchjson", "", "measure substrate benches and write this JSON file, then exit")
		benchNote = flag.String("benchnote", "", "label for the -benchjson snapshot (set when the measured code changed)")
		remote    = flag.String("remote", "", "submit experiments to a tssd daemon at this base URL instead of running locally")
		token     = flag.String("token", "", "bearer token for the remote daemon (with -remote against an authenticated tssd)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	defer prof.Start(*cpuProf, *memProf)()

	if *benchJS != "" {
		if err := runBenchJSON(*benchJS, *benchNote); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.Registry() {
			extra := ""
			if e.Extra {
				extra = " (extra: excluded from 'all')"
			}
			fmt.Printf("%-9s %s%s\n          paper: %s\n", e.ID, e.Title, extra, e.Paper)
		}
		return
	}

	var sink *experiments.Sink
	if *jsonOut != "" {
		sink = &experiments.Sink{}
	}
	opts := experiments.Options{
		Quick: !*full, Seed: *seed, Cores: *cores,
		Workers: *workers, Sink: sink,
		Policy: *policy,
	}
	var ids []string
	if *expID == "all" {
		// Extra experiments (laboratory extensions) only run when named
		// explicitly; "all" stays pinned to the paper's figures so the
		// committed determinism goldens keep hashing the same output.
		for _, e := range experiments.Registry() {
			if !e.Extra {
				ids = append(ids, e.ID)
			}
		}
	} else {
		ids = strings.Split(*expID, ",")
	}

	if *remote != "" {
		// -workers keeps its meaning remotely: it sizes the sweep's
		// internal pool, just on the daemon (0 falls back to the
		// daemon's serial default rather than the client's CPU count).
		runRemote(*remote, *token, ids, *full, *seed, *cores, *workers, *policy, sink)
		writeSink(sink, *jsonOut)
		return
	}

	for _, id := range ids {
		e, ok := experiments.Get(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "tsbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}

	writeSink(sink, *jsonOut)
}

// writeSink dumps the collected sweep points (if any were requested).
func writeSink(sink *experiments.Sink, jsonOut string) {
	if sink == nil {
		return
	}
	f, err := os.Create(jsonOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
		os.Exit(1)
	}
	err = sink.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsbench: writing %s: %v\n", jsonOut, err)
		os.Exit(1)
	}
	fmt.Printf("sweep points written to %s (%d points)\n", jsonOut, len(sink.Points()))
}

// runRemote submits each experiment to a tssd daemon as a sweep job,
// printing its output lines as they stream back and recording the returned
// sweep points into sink (for -json). Ctrl-C cancels the in-flight remote
// job cooperatively before exiting.
func runRemote(base, token string, ids []string, full bool, seed int64, cores, sweepWorkers int, policy string, sink *experiments.Sink) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Retry policy: a content-addressed API is idempotent, so riding out a
	// dispatcher restart or a transient 503 cannot double-run an experiment.
	cl := service.NewClient(base, service.WithToken(token),
		service.WithRetry(service.CLIRetry))
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := experiments.Get(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "tsbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		st, err := cl.Submit(ctx, &service.JobSpec{
			Kind: service.KindSweep,
			Sweep: &service.SweepSpec{
				Experiment: e.ID, Full: full, Seed: &seed, Cores: cores,
				Workers: sweepWorkers, Policy: policy,
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		printed := false
		if !st.Cached {
			id := st.ID
			st, err = cl.Wait(ctx, id, func(ev service.Event) {
				if ev.Type == "log" {
					var l struct{ Line string }
					if json.Unmarshal(ev.Data, &l) == nil {
						fmt.Println(l.Line)
						printed = true
					}
				}
			})
			if err != nil {
				if ctx.Err() != nil {
					cancelRemote(cl, id)
					os.Exit(130)
				}
				fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
				os.Exit(1)
			}
			if st.Status != service.StatusDone {
				fmt.Fprintf(os.Stderr, "tsbench: %s ended %s remotely: %s\n", e.ID, st.Status, st.Error)
				os.Exit(1)
			}
		}
		var res service.SweepResult
		if err := json.Unmarshal(st.Result, &res); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: decoding %s result: %v\n", e.ID, err)
			os.Exit(1)
		}
		if !printed {
			fmt.Print(res.Output)
		}
		for _, p := range res.Points {
			sink.Record(p.Experiment, p.Labels, p.Values)
		}
		suffix := ""
		if st.Cached {
			suffix = ", cached"
		}
		fmt.Printf("(%s in %.1fs remote%s)\n\n", e.ID, time.Since(start).Seconds(), suffix)
	}
}
