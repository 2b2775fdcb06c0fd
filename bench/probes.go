package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"tasksuperscalar/internal/benchsuite"
	"tasksuperscalar/internal/service"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

// simInput is one of a workload's own simulations, regenerated by the
// layer probes.
type simInput struct {
	wl    workloads.Info
	tasks int
	seed  int64
	cfg   tss.Config
}

// specSim is the simulation a normalized sim job spec describes.
func specSim(spec *service.JobSpec) simInput {
	wl, _ := workloads.ByName(spec.Sim.Workload)
	return simInput{wl: wl, tasks: *spec.Sim.Tasks, seed: *spec.Sim.Seed, cfg: spec.Sim.Config()}
}

// layerInputs is what a workload hands the traced-run layer probes.
type layerInputs struct {
	// machine is the workload's machine; the set-up probe resizes it.
	machine tss.Config
	// sims are the workload's own simulations, rerun one by one.
	sims []simInput
	// specs are submitted to a fresh fleet by the service probe; nil when
	// the workload measured the service under its own load.
	specs []*service.JobSpec
	// sweepText is the printed output the first spec (a sweep) must
	// reproduce.
	sweepText []byte
	// payload is a result of the workload's size for the store probe.
	payload []byte
}

// traceLayers runs the per-layer probes of a traced run and sets every
// per-layer metric the workload did not set itself.
func (r *run) traceLayers(in layerInputs) error {
	r.simBodies()
	if err := r.setupProbe(in.machine); err != nil {
		return err
	}
	r.simProbe(in.sims)
	if err := r.storeProbe(in.payload); err != nil {
		return err
	}
	if in.specs != nil {
		if err := r.serviceProbe(in.specs, in.sweepText); err != nil {
			return err
		}
	}
	// Only fig16-sweep runs an experiment pool.
	r.rep.setDefault("experiments.points", 0, "no experiment pool")
	r.rep.setDefault("experiments.pool_busy_share", 0, "no experiment pool")
	return nil
}

var benchFlags sync.Once

// simBodies times the internal/sim benchmark bodies that BENCH_engine.json
// also tracks, via testing.Benchmark.
func (r *run) simBodies() {
	benchFlags.Do(testing.Init)
	if err := flag.Set("test.benchtime", r.sc.bodyTime.String()); err != nil {
		panic(err) // registered by testing.Init
	}
	for _, b := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"sim.schedule_fire_ns", benchsuite.EngineScheduleFire},
		{"sim.schedule_pop_ns", benchsuite.EngineSchedulePop},
		{"sim.mixed_horizons_ns", benchsuite.EngineMixedHorizons},
		{"sim.server_msg_ns", benchsuite.ServerPipeline},
	} {
		op := r.tr.newOp()
		sp := r.tr.start(op, 0, "probe."+b.name)
		res := testing.Benchmark(b.fn)
		r.tr.end(sp)
		r.rep.set(b.name, float64(res.T.Nanoseconds())/float64(max(res.N, 1)), res.N, "mean per op")
	}
}

// setupProbe times machine construction alone: an empty task list on the
// workload's machine at each Table II core count.
func (r *run) setupProbe(machine tss.Config) error {
	for _, cores := range []int{32, 64, 128, 256} {
		cfg := machine.WithCores(cores)
		var times []float64
		for i := 0; i < r.sc.setupProbeReps; i++ {
			op := r.tr.newOp()
			t0 := time.Now()
			sp := r.tr.start(op, 0, "probe.tss.setup")
			_, err := tss.RunTasks(nil, cfg)
			r.tr.end(sp)
			if err != nil {
				return fmt.Errorf("empty run at %d cores: %w", cores, err)
			}
			times = append(times, ms(time.Since(t0)))
		}
		r.rep.set("tss.setup_ms.c"+strconv.Itoa(cores), median(times), len(times), "p50")
	}
	return nil
}

// simAgg sums a set of simulation results into per-task rates, weighting
// each run's averages by its task count.
type simAgg struct {
	hwTasks, swTasks, memTasks, tasks float64
	decode, windowAvg, readyLag       float64
	ortStalls, ovtStalls              float64
	renames, copyBacks, frag          float64
	gwUtil, trsUtil, ortUtil, ovtUtil float64
	windowMax, readyPeak              float64
	util, work                        float64
	swDecode                          float64
	fetches, l1Hits, moved, dram      float64
	invals, writebacks                float64
}

func (a *simAgg) add(res *tss.Result, memory bool) {
	n := float64(res.Tasks)
	a.tasks += n
	a.readyPeak = max(a.readyPeak, float64(res.Dispatch.ReadyPeak))
	a.util += res.Utilization * n
	a.work += float64(res.Dispatch.WorkCycles)
	switch res.Kind {
	case tss.HardwarePipeline:
		fe := res.Frontend
		a.hwTasks += n
		a.decode += fe.DecodeRate * n
		a.windowMax = max(a.windowMax, float64(fe.WindowMax))
		a.windowAvg += fe.WindowTimeAvg * n
		a.readyLag += fe.ReadyLagAvg * n
		a.ortStalls += float64(fe.ORTStallEvents)
		a.ovtStalls += float64(fe.OVTStallEvents)
		a.renames += float64(fe.Renames)
		a.copyBacks += float64(fe.CopyBacks)
		a.frag += fe.InternalFragmentation * n
		a.gwUtil += fe.GatewayUtil * n
		a.trsUtil += fe.TRSUtil * n
		a.ortUtil += fe.ORTUtil * n
		a.ovtUtil += fe.OVTUtil * n
	case tss.SoftwareRuntime:
		a.swTasks += n
		a.swDecode += res.Software.DecodeRate * n
	}
	if memory {
		m := res.Mem
		a.memTasks += n
		a.fetches += float64(m.Fetches)
		a.l1Hits += float64(m.L1ObjHits)
		a.moved += float64(m.BytesMoved)
		a.dram += float64(m.DRAMBytes)
		a.invals += float64(m.Invalidations)
		a.writebacks += float64(m.Writebacks)
	}
}

// per divides, reporting 0 work for a layer no simulation exercised.
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// set reports the aggregate as the core, backend, mem and softrt metrics.
func (a *simAgg) set(rep *report) {
	hw, note := a.hwTasks, fmt.Sprintf("over %.0f hardware-pipeline tasks", a.hwTasks)
	rep.set("core.decode_cycles_per_task", per(a.decode, hw), 0, note)
	rep.set("core.window_max", a.windowMax, 0, "max over runs")
	rep.set("core.window_avg", per(a.windowAvg, hw), 0, note)
	rep.set("core.ready_lag_avg_cycles", per(a.readyLag, hw), 0, note)
	rep.set("core.ort_stalls_per_task", per(a.ortStalls, hw), 0, note)
	rep.set("core.ovt_stalls_per_task", per(a.ovtStalls, hw), 0, note)
	rep.set("core.renames_per_task", per(a.renames, hw), 0, note)
	rep.set("core.copybacks_per_task", per(a.copyBacks, hw), 0, note)
	rep.set("core.trs_fragmentation", per(a.frag, hw), 0, note)
	rep.set("core.gateway_util", per(a.gwUtil, hw), 0, note)
	rep.set("core.trs_util", per(a.trsUtil, hw), 0, note)
	rep.set("core.ort_util", per(a.ortUtil, hw), 0, note)
	rep.set("core.ovt_util", per(a.ovtUtil, hw), 0, note)
	all := fmt.Sprintf("over %.0f tasks", a.tasks)
	rep.set("backend.ready_peak", a.readyPeak, 0, "max over runs")
	rep.set("backend.utilization", per(a.util, a.tasks), 0, all)
	rep.set("backend.work_cycles_per_task", per(a.work, a.tasks), 0, all)
	mem := fmt.Sprintf("over %.0f tasks with the memory hierarchy", a.memTasks)
	rep.set("mem.fetches_per_task", per(a.fetches, a.memTasks), 0, mem)
	rep.set("mem.l1_hit_ratio", per(a.l1Hits, a.l1Hits+a.fetches), 0, "hits / (hits + fetches)")
	rep.set("mem.bytes_moved_per_task", per(a.moved, a.memTasks), 0, mem)
	rep.set("mem.dram_bytes_per_task", per(a.dram, a.memTasks), 0, mem)
	rep.set("mem.invalidations_per_task", per(a.invals, a.memTasks), 0, mem)
	rep.set("mem.writebacks_per_task", per(a.writebacks, a.memTasks), 0, mem)
	rep.set("softrt.decode_cycles_per_task", per(a.swDecode, a.swTasks), 0,
		fmt.Sprintf("over %.0f software-runtime tasks", a.swTasks))
}

// simProbe regenerates and reruns the workload's own simulations one at a
// time: generation time, simulation time, the heap allocations of
// tss.RunTasks alone, and the simulated counters of every module.
func (r *run) simProbe(sims []simInput) {
	var agg simAgg
	var genNs, genTasks, mallocs, allocBytes float64
	var runMs []float64
	for _, s := range sims {
		op := r.tr.newOp()
		t0 := time.Now()
		g := r.tr.start(op, 0, "probe.workloads.gen")
		b := s.wl.Gen(s.tasks, s.seed)
		r.tr.end(g)
		genNs += float64(time.Since(t0).Nanoseconds())
		genTasks += float64(len(b.Tasks))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t1 := time.Now()
		res, err := r.simulate(op, 0, b.Tasks, s.cfg)
		d := time.Since(t1)
		runtime.ReadMemStats(&after)
		r.rep.check(err == nil && res.Tasks == uint64(len(b.Tasks)), "probe simulation of %s: %v", s.wl.Name, err)
		if err != nil {
			continue
		}
		runMs = append(runMs, ms(d))
		mallocs += float64(after.Mallocs - before.Mallocs)
		allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
		agg.add(res, s.cfg.Memory)
	}
	r.rep.set("workloads.gen_ns_per_task", per(genNs, genTasks), len(sims), "generation only")
	r.rep.set("tss.run_ms.p50", median(runMs), len(runMs), "p50")
	r.rep.set("tss.allocs_per_task", per(mallocs, agg.tasks), len(runMs), "heap allocations in tss.RunTasks")
	r.rep.set("tss.bytes_per_task", per(allocBytes, agg.tasks), len(runMs), "heap bytes in tss.RunTasks")
	agg.set(r.rep)
}

// storeProbe times direct DiskStore writes (each fsyncs the file and the
// directory) and reads of a result envelope of the workload's size, in the
// temp directory the fleets use.
func (r *run) storeProbe(payload []byte) error {
	dir := filepath.Join(r.tmp, "store-probe")
	store, err := service.OpenDiskStore(dir, 0)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	keys := make([]string, r.sc.storeOps)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("store-probe-%d", i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	op := r.tr.newOp()
	var put, get []float64
	for _, k := range keys {
		t0 := time.Now()
		sp := r.tr.start(op, 0, "probe.service.store_put")
		store.Put(k, payload)
		r.tr.end(sp)
		put = append(put, 1e3*ms(time.Since(t0)))
	}
	for _, k := range keys {
		t0 := time.Now()
		sp := r.tr.start(op, 0, "probe.service.store_get")
		got, ok := store.Get(k)
		r.tr.end(sp)
		get = append(get, 1e3*ms(time.Since(t0)))
		r.rep.check(ok && bytes.Equal(got, payload), "store probe: key %.12s did not read back", k)
	}
	r.rep.set("service.store_put_us.p50", quantile(put, 0.5), len(put), fmt.Sprintf("p50, %d-byte payload", len(payload)))
	r.rep.set("service.store_put_us.p99", quantile(put, 0.99), len(put), "p99")
	r.rep.set("service.store_get_us.p50", quantile(get, 0.5), len(get), "p50")
	return nil
}

// serviceProbe submits the workload's own specs to a fresh fleet, cold and
// then again as repeats, and runs each directly through service.RunSpec:
// the service layer split for this workload's job shape.
func (r *run) serviceProbe(specs []*service.JobSpec, sweepText []byte) error {
	dir := filepath.Join(r.tmp, "service-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := startFleet(dir)
	if err != nil {
		return err
	}
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	cl, tr := f.client()
	defer tr.CloseIdleConnections()
	ctx := context.Background()
	var stats serviceStats
	cold := make([]jobTiming, len(specs))
	var lastWait time.Time
	for pass := 0; pass < 2; pass++ {
		for i, spec := range specs {
			t, err := submitAndWait(ctx, cl, r.tr, r.tr.newOp(), spec)
			lastWait = t.end
			r.rep.op(err)
			if err != nil {
				continue
			}
			stats.add(t, pass > 0)
			if pass == 0 {
				cold[i] = t
			}
		}
	}
	st, settledAt, err := f.settle(ctx, cl)
	r.rep.op(err)
	f.close()
	f = nil
	for i, spec := range specs {
		if cold[i].final == nil {
			continue
		}
		stats.direct(r.rep, spec, cold[i])
		if i == 0 && sweepText != nil {
			out, err := sweepOutput(cold[i].final.Result)
			r.rep.check(err == nil && bytes.Equal(out, sweepText),
				"sweep job output differs from the direct experiment run (%v)", err)
		}
	}
	if st == nil {
		return fmt.Errorf("service probe: %w", err)
	}
	stats.report(r.rep, st, settledAt.Sub(lastWait))
	return nil
}
