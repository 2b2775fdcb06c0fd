package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"tasksuperscalar/internal/service"
	"tasksuperscalar/internal/taskmodel"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

// simJob builds a normalized sim job spec. The benchmark runs every sim
// workload on the machine a spec describes (SimSpec.Config), so a direct
// tss run, service.RunSpec and a tssd job of the same spec must produce
// byte-identical results.
func simJob(workload string, tasks int, seed int64, cores int, memory bool) *service.JobSpec {
	spec := &service.JobSpec{Kind: service.KindSim, Sim: &service.SimSpec{
		Workload: workload, Tasks: &tasks, Seed: &seed,
		Machine: service.MachineSpec{Cores: cores, Memory: memory},
	}}
	if err := spec.Normalize(); err != nil {
		panic(fmt.Sprintf("bench: invalid built-in spec: %v", err)) // the specs are constants of this file
	}
	return spec
}

// runSimWorkload is cholesky-decode and h264-memory: one generated task
// list simulated again and again on the same machine. An operation is one
// tss.RunTasks call.
func runSimWorkload(r *run, workload string, tasks, cores int, memory bool) error {
	spec := simJob(workload, tasks, r.seed, cores, memory)
	wl, _ := workloads.ByName(workload)
	cfg := spec.Sim.Config()

	// Set-up is generation plus one warm-up simulation. The first result is
	// the reference every later simulation must reproduce.
	var build *workloads.Build
	var want []byte
	setup := func() (time.Duration, error) {
		op := r.tr.newOp()
		t0 := time.Now()
		sp := r.tr.start(op, 0, "bench.setup")
		g := r.tr.start(op, sp, "workloads.gen")
		build = wl.Gen(tasks, r.seed)
		r.tr.end(g)
		res, err := r.simulate(op, sp, build.Tasks, cfg)
		r.tr.end(sp)
		d := time.Since(t0)
		got := r.checkSim(spec, len(build.Tasks), res, err, want)
		if want == nil {
			want = got
		}
		return d, nil
	}
	window := func() error {
		if want == nil {
			return fmt.Errorf("%s: warm-up simulation failed", workload)
		}
		r.rep.fingerprint = fmt.Sprintf("sha256:%x", sha256.Sum256(want))
		lat, wall := r.loop(func() time.Duration {
			op := r.tr.newOp()
			t0 := time.Now()
			sp := r.tr.start(op, 0, "bench.sim")
			res, err := r.simulate(op, sp, build.Tasks, cfg)
			r.tr.end(sp)
			d := time.Since(t0)
			r.checkSim(spec, len(build.Tasks), res, err, want)
			return d
		})
		r.setLatency(lat, wall, 0.8)
		r.rep.setExtra("host_ns_per_task.p50", "ns", median(lat)*1e6/float64(len(build.Tasks)), len(lat), "p50")
		return nil
	}
	if err := r.setups(r.sc.setupReps, setup, window); err != nil {
		return err
	}

	if r.tr != nil {
		sim := simInput{wl: wl, tasks: tasks, seed: r.seed, cfg: cfg}
		return r.traceLayers(layerInputs{
			machine: cfg,
			sims:    []simInput{sim, sim},
			specs:   []*service.JobSpec{spec, simJob(workload, tasks, r.seed+1, cores, memory)},
			payload: want,
		})
	}
	return nil
}

// simulate runs one task list under a tss.run span.
func (r *run) simulate(op, parent int, tasks []*taskmodel.Task, cfg tss.Config) (*tss.Result, error) {
	sp := r.tr.start(op, parent, "tss.run")
	defer r.tr.end(sp)
	return tss.RunTasks(tasks, cfg)
}

// checkSim is the per-simulation correctness gate: the run succeeded,
// executed every generated task, and (when want is set) its canonical
// result bytes equal the first run's. It returns the result bytes.
func (r *run) checkSim(spec *service.JobSpec, generated int, res *tss.Result, err error, want []byte) []byte {
	if err != nil {
		r.rep.op(fmt.Errorf("simulation: %w", err))
		return nil
	}
	got, err := service.EncodeSimResult(spec.Sim, res)
	switch {
	case err != nil:
		r.rep.op(fmt.Errorf("encoding result: %w", err))
		return nil
	case res.Tasks != uint64(generated):
		r.rep.op(fmt.Errorf("executed %d of %d generated tasks", res.Tasks, generated))
	case want != nil && !bytes.Equal(got, want):
		r.rep.op(fmt.Errorf("result differs from the first run's"))
	default:
		r.rep.op(nil)
	}
	return got
}
