package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"tasksuperscalar/internal/experiments"
	"tasksuperscalar/internal/service"
	"tasksuperscalar/tss"
)

// sweepWidth is the experiment pool width of fig16-sweep: both CPUs of the
// reference host, so the slowest point sets the sweep's wall time.
const sweepWidth = 2

// pointLog collects the constituent simulations of one traced sweep.
type pointLog struct {
	mu   sync.Mutex
	jobs []experiments.SimJob
	ms   []float64
}

func (p *pointLog) add(job experiments.SimJob, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jobs = append(p.jobs, job)
	p.ms = append(p.ms, ms(d))
}

// runSweepWorkload is fig16-sweep: one paper experiment regenerated end to
// end (every point generates its workload and simulates it) on a 2-wide
// experiments pool. An operation is one whole experiment run; its output
// text and points must be byte-identical on every run.
func runSweepWorkload(r *run) error {
	exp, ok := experiments.Get(r.sc.experiment)
	if !ok {
		return fmt.Errorf("unknown experiment %q", r.sc.experiment)
	}
	base := experiments.Options{Quick: true, Seed: r.seed, Cores: r.sc.sweepCores, Workers: sweepWidth}
	sweep := func(o experiments.Options) (text, points []byte, err error) {
		var out, js bytes.Buffer
		o.Sink = &experiments.Sink{}
		if err := exp.Run(&out, o); err != nil {
			return nil, nil, err
		}
		if err := o.Sink.WriteJSON(&js); err != nil {
			return nil, nil, err
		}
		return out.Bytes(), js.Bytes(), nil
	}

	// Set-up is a warm-up sweep (there is nothing to build ahead of one),
	// always untraced: its output is the reference every later sweep,
	// traced through Options.RunSim or not, must reproduce.
	var wantText, want []byte
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		text, points, err := sweep(base)
		d := time.Since(t0)
		got := append(append([]byte(nil), text...), points...)
		switch {
		case err != nil:
			r.rep.op(fmt.Errorf("warm-up sweep: %w", err))
		case want != nil && !bytes.Equal(got, want):
			r.rep.op(fmt.Errorf("warm-up sweep output differs from the first"))
		default:
			r.rep.op(nil)
			if want == nil {
				want, wantText = got, text
			}
		}
		return d, nil
	}
	var last *pointLog
	var pointMs, busy []float64
	window := func() error {
		if want == nil {
			return fmt.Errorf("%s: every warm-up sweep failed", r.sc.experiment)
		}
		r.rep.fingerprint = fmt.Sprintf("sha256:%x", sha256.Sum256(want))
		lat, wall := r.loop(func() time.Duration {
			o := base
			op := r.tr.newOp()
			log := &pointLog{}
			t0 := time.Now()
			sp := r.tr.start(op, 0, "experiments.sweep")
			if r.tr != nil {
				o.RunSim = r.tracedPoint(op, sp, log)
			}
			text, points, err := sweep(o)
			r.tr.end(sp)
			d := time.Since(t0)
			switch {
			case err != nil:
				r.rep.op(fmt.Errorf("sweep: %w", err))
			case !bytes.Equal(append(text, points...), want):
				r.rep.op(fmt.Errorf("sweep output differs from the untraced warm-up sweep"))
			default:
				r.rep.op(nil)
			}
			if r.tr != nil {
				last = log
				pointMs = append(pointMs, log.ms...)
				busy = append(busy, sum(log.ms)/(ms(d)*sweepWidth))
			}
			return d
		})
		r.setLatency(lat, wall, 0.75)
		return nil
	}
	if err := r.setups(r.sc.setupReps, setup, window); err != nil {
		return err
	}

	if r.tr == nil {
		return nil
	}
	r.rep.set("experiments.points", float64(len(last.jobs)), 0, "per sweep")
	r.rep.set("experiments.pool_busy_share", median(busy), len(busy), "median")
	r.rep.setExtra("experiments.point_ms.p50", "ms", quantile(pointMs, 0.5), len(pointMs), "p50")
	r.rep.setExtra("experiments.point_ms.p99", "ms", quantile(pointMs, 0.99), len(pointMs), "p99")

	var sims []simInput
	for _, j := range last.jobs[:min(len(last.jobs), r.sc.probeSims)] {
		sims = append(sims, simInput{wl: j.Workload, tasks: j.Tasks, seed: j.Seed, cfg: j.Config})
	}
	specs := make([]*service.JobSpec, 2)
	for i := range specs {
		specs[i] = sweepJob(r.sc.experiment, r.seed+int64(i), r.sc.sweepCores, sweepWidth)
	}
	return r.traceLayers(layerInputs{
		machine:   sims[0].cfg,
		sims:      sims,
		specs:     specs,
		payload:   want,
		sweepText: wantText,
	})
}

// tracedPoint is the Options.RunSim hook of a traced sweep: it does what
// the in-process path does (generate, then simulate) with a span around
// each step, so the result, and the sweep's output, are unchanged.
func (r *run) tracedPoint(op, parent int, log *pointLog) func(experiments.SimJob) (*tss.Result, error) {
	return func(job experiments.SimJob) (*tss.Result, error) {
		t0 := time.Now()
		pt := r.tr.start(op, parent, "experiments.point")
		g := r.tr.start(op, pt, "workloads.gen")
		b := job.Workload.Gen(job.Tasks, job.Seed)
		r.tr.end(g)
		res, err := r.simulate(op, pt, b.Tasks, job.Config)
		r.tr.end(pt)
		log.add(job, time.Since(t0))
		return res, err
	}
}

// sweepJob builds a normalized sweep job spec.
func sweepJob(experiment string, seed int64, cores, workers int) *service.JobSpec {
	spec := &service.JobSpec{Kind: service.KindSweep, Sweep: &service.SweepSpec{
		Experiment: experiment, Seed: &seed, Cores: cores, Workers: workers,
	}}
	if err := spec.Normalize(); err != nil {
		panic(fmt.Sprintf("bench: invalid built-in spec: %v", err)) // the specs are constants of this package
	}
	return spec
}

// sweepOutput extracts the printed experiment text from a sweep job result.
func sweepOutput(result []byte) ([]byte, error) {
	var sr service.SweepResult
	if err := json.Unmarshal(result, &sr); err != nil {
		return nil, err
	}
	return []byte(sr.Output), nil
}
