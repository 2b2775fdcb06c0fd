package service

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"tasksuperscalar/internal/experiments"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

// fig12Spec is the sweep used by the sharding tests: in quick mode it
// enumerates 16 constituent simulations (2 benchmarks x 4 TRS x 2 ORT
// points), every one expressible as a standalone sim spec.
func fig12Spec() *JobSpec {
	return &JobSpec{Kind: KindSweep, Sweep: &SweepSpec{Experiment: "fig12"}}
}

const fig12Points = 16

// fig12PointSpec is the sim-spec form of one fig12 quick point: 600 tasks of
// the named benchmark at seed 42 on the decode-sweep machine (6 MB total TRS
// split over numTRS, 512 KB ORT/OVT each, 256 cores).
func fig12PointSpec(workload string, numTRS, numORT int) *JobSpec {
	tasks, seed := 600, int64(42)
	return &JobSpec{Kind: KindSim, Sim: &SimSpec{
		Workload: workload, Tasks: &tasks, Seed: &seed,
		Machine: MachineSpec{
			Cores: 256, TRS: numTRS, ORT: numORT,
			TRSKB: (6 << 10) / numTRS, ORTKB: 512, OVTKB: 512,
		},
	}}
}

// directBytes runs a spec through the monolithic in-process path — the
// reference every sharded execution must match byte-for-byte.
func directBytes(t *testing.T, spec *JobSpec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	b, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// shardConserved asserts the shard-level conservation invariant: every point
// a sweep enumerated settled as exactly one outcome.
func shardConserved(t *testing.T, sh ShardStats) {
	t.Helper()
	if got := sh.MemHits + sh.DiskHits + sh.Coalesced + sh.Simulated + sh.Inline + sh.Failed; got != sh.Points {
		t.Fatalf("shard conservation violated: outcomes sum to %d of %d points (%+v)", got, sh.Points, sh)
	}
}

// The sharding tentpole on one daemon: a sweep decomposed into per-point sim
// jobs reassembles byte-identically to the monolithic run, every point flows
// through the content-addressed store (none fall back to inline execution),
// and the point results are shared bidirectionally with the plain sim-job
// API — a pre-run sim answers a sweep point from cache, and a sweep point
// answers a later sim submission from cache.
func TestShardedSweepByteIdenticalAndCacheShared(t *testing.T) {
	want := directBytes(t, fig12Spec())
	srv, cl := startDaemon(t, Config{Workers: 2})
	ctx := context.Background()

	// Pre-run one constituent point as an ordinary API sim job: the sweep
	// must pick its result up from the cache instead of re-simulating.
	pre, err := cl.Submit(ctx, fig12PointSpec("cholesky", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if pre, err = cl.Wait(ctx, pre.ID, nil); err != nil || pre.Status != StatusDone {
		t.Fatalf("pre-run point: %v / %+v", err, pre)
	}

	st, err := cl.Submit(ctx, fig12Spec())
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != StatusDone {
		t.Fatalf("sweep ended %s: %s", fin.Status, fin.Error)
	}
	got, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded sweep differs from monolithic run:\n got: %.200s…\nwant: %.200s…", got, want)
	}

	sh := srv.Stats().Shard
	shardConserved(t, sh)
	if sh.Points != fig12Points {
		t.Fatalf("sweep enumerated %d points, want %d", sh.Points, fig12Points)
	}
	if sh.Inline != 0 {
		t.Fatalf("%d points fell back to inline execution — pointSpec no longer expresses the decode sweep", sh.Inline)
	}
	if sh.Failed != 0 {
		t.Fatalf("%d points failed", sh.Failed)
	}
	if sh.MemHits == 0 {
		t.Fatal("the pre-run point was not served to the sweep from cache — sim and sweep keys diverged")
	}

	// The reverse direction: a point the sweep simulated now answers an
	// ordinary sim submission without running anything.
	after, err := cl.Submit(ctx, fig12PointSpec("h264", 64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !after.Cached || after.Status != StatusDone {
		t.Fatalf("sim submission of a swept point: cached=%v status=%s, want cached done", after.Cached, after.Status)
	}
}

// A sharded sweep on a fleet: one dispatcher over three workers, six
// concurrent duplicate submissions of the same sweep under -race. The
// duplicates coalesce into one execution whose points fan out across the
// fleet; every client reads bytes identical to the monolithic run, and the
// job- and point-level conservation invariants hold on every node.
func TestFleetShardedSweep(t *testing.T) {
	want := directBytes(t, fig12Spec())
	disp, cl, workers := startFleet(t, 3, Config{Workers: 2})
	ctx := context.Background()

	const dupes = 6
	results := make([][]byte, dupes)
	var wg sync.WaitGroup
	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := cl.Submit(ctx, fig12Spec())
			if err != nil {
				t.Errorf("client %d submit: %v", i, err)
				return
			}
			if !st.Cached {
				if st, err = cl.Wait(ctx, st.ID, nil); err != nil {
					t.Errorf("client %d wait: %v", i, err)
					return
				}
				if st.Status != StatusDone {
					t.Errorf("client %d sweep %s: %s", i, st.Status, st.Error)
					return
				}
			}
			body, err := cl.Result(ctx, st.ID)
			if err != nil {
				t.Errorf("client %d result: %v", i, err)
				return
			}
			results[i] = body
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, body := range results {
		if !bytes.Equal(body, want) {
			t.Fatalf("client %d: sharded fleet sweep differs from monolithic run", i)
		}
	}

	ds := disp.Stats()
	// Job level: one execution, the rest coalesced or cache-answered.
	if got := ds.Completed + ds.Coalesced + ds.CacheHits + ds.DiskHits; got != dupes {
		t.Fatalf("completed(%d)+coalesced(%d)+cache(%d)+disk(%d) = %d, want %d submissions",
			ds.Completed, ds.Coalesced, ds.CacheHits, ds.DiskHits, got, dupes)
	}
	if ds.Completed != 1 {
		t.Fatalf("%d sweep executions for %d duplicate submissions", ds.Completed, dupes)
	}
	// Point level: all 16 points resolved through the store, none inline,
	// none failed, and every fleet-executed point settled on some worker.
	shardConserved(t, ds.Shard)
	if ds.Shard.Points != fig12Points {
		t.Fatalf("fleet sweep enumerated %d points, want %d", ds.Shard.Points, fig12Points)
	}
	if ds.Shard.Inline != 0 || ds.Shard.Failed != 0 {
		t.Fatalf("inline=%d failed=%d points on the fleet", ds.Shard.Inline, ds.Shard.Failed)
	}
	if ds.Shard.Simulated == 0 {
		t.Fatal("no points were executed through the fleet")
	}
	var workerSettled uint64
	participating := 0
	for _, w := range workers {
		ws := w.srv.Stats()
		workerSettled += ws.Completed + ws.Coalesced + ws.CacheHits + ws.DiskHits
		if ws.Submitted > 0 {
			participating++
		}
		if ws.Failed != 0 || ws.Inflight != 0 {
			t.Fatalf("worker settled dirty: %+v", ws)
		}
	}
	if workerSettled != ds.Shard.Simulated {
		t.Fatalf("workers settled %d jobs, dispatcher executed %d points through the fleet",
			workerSettled, ds.Shard.Simulated)
	}
	if participating < 2 {
		t.Fatalf("only %d of 3 workers received points — sweep did not fan out", participating)
	}
	if ds.Fleet.Retries != 0 {
		t.Fatalf("%d unexpected retries with healthy workers", ds.Fleet.Retries)
	}
}

// The policy laboratory across a fleet: the "policies" experiment — whose
// grid mixes all four dispatch policies and a heterogeneous worker-class
// point — decomposes into per-point sim jobs that fan out over three worker
// daemons and reassemble byte-identically to the monolithic in-process run.
// Every point must be expressible as a sim spec (policy and classes survive
// the pointSpec round-trip) — none may fall back to inline execution.
func TestFleetPolicySweep(t *testing.T) {
	spec := func() *JobSpec {
		return &JobSpec{Kind: KindSweep, Sweep: &SweepSpec{Experiment: "policies"}}
	}
	want := directBytes(t, spec())
	disp, cl, _ := startFleet(t, 3, Config{Workers: 2})
	ctx := context.Background()

	st, err := cl.Submit(ctx, spec())
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != StatusDone {
		t.Fatalf("policy sweep ended %s: %s", fin.Status, fin.Error)
	}
	got, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet policy sweep differs from monolithic run:\n got: %.300s…\nwant: %.300s…", got, want)
	}

	sh := disp.Stats().Shard
	shardConserved(t, sh)
	// Quick mode: 1 benchmark × 4 policies × 2 core counts.
	if sh.Points != 8 {
		t.Fatalf("policy sweep enumerated %d points, want 8", sh.Points)
	}
	if sh.Inline != 0 {
		t.Fatalf("%d policy points fell back to inline execution — pointSpec dropped policy or classes", sh.Inline)
	}
	if sh.Failed != 0 {
		t.Fatalf("%d policy points failed", sh.Failed)
	}
}

// pointSpec must express every machine shape the experiment sweeps generate
// — including Figure 14's asymmetric ORT/OVT sizing — and must refuse
// anything it cannot round-trip exactly.
func TestPointSpecExpressibility(t *testing.T) {
	chol, ok := workloads.ByName("cholesky")
	if !ok {
		t.Fatal("cholesky workload missing")
	}
	base := func() tss.Config {
		cfg := tss.DefaultConfig().WithCores(256)
		cfg.Memory = false
		return cfg
	}

	t.Run("decode sweep point", func(t *testing.T) {
		cfg := base()
		cfg.Frontend.NumTRS = 4
		cfg.Frontend.NumORT = 2
		cfg.Frontend.TRSBytesEach = (6 << 20) / 4
		cfg.Frontend.ORTBytesEach = 512 << 10
		cfg.Frontend.OVTBytesEach = 512 << 10
		spec, ok := pointSpec(experiments.SimJob{Workload: chol, Tasks: 600, Seed: 42, Config: cfg})
		if !ok {
			t.Fatal("decode-sweep point not expressible")
		}
		// Its key must equal the key of the equivalent API-submitted spec,
		// or sweeps and sim jobs would stop sharing results.
		api := fig12PointSpec("cholesky", 4, 2)
		if err := api.Normalize(); err != nil {
			t.Fatal(err)
		}
		if spec.Key() != api.Key() {
			t.Fatalf("point key %s != equivalent API spec key %s", spec.Key(), api.Key())
		}
	})

	t.Run("fig14 asymmetric ORT/OVT", func(t *testing.T) {
		cfg := base()
		// Figure 14 scales per-ORT capacity while OVTs stay at the default
		// 256 KB — only the OVTKB field makes this expressible.
		cfg.Frontend.ORTBytesEach = (16 << 10) / uint64(cfg.Frontend.NumORT)
		spec, ok := pointSpec(experiments.SimJob{Workload: chol, Tasks: 600, Seed: 42, Config: cfg})
		if !ok {
			t.Fatal("fig14 point not expressible")
		}
		if spec.Sim.Machine.ORTKB != 8 || spec.Sim.Machine.OVTKB != 256 {
			t.Fatalf("ORT/OVT sizing lost: ortkb=%d ovtkb=%d, want 8/256",
				spec.Sim.Machine.ORTKB, spec.Sim.Machine.OVTKB)
		}
	})

	t.Run("software runtime", func(t *testing.T) {
		cfg := base()
		cfg.Runtime = tss.SoftwareRuntime
		spec, ok := pointSpec(experiments.SimJob{Workload: chol, Tasks: 600, Seed: 42, Config: cfg})
		if !ok {
			t.Fatal("software-runtime point not expressible")
		}
		if spec.Sim.Machine.Runtime != "software" {
			t.Fatalf("runtime mapped to %q", spec.Sim.Machine.Runtime)
		}
	})

	t.Run("policy laboratory point", func(t *testing.T) {
		cfg := base()
		cfg.Backend.Policy = tss.PolicyHetero
		cfg.Backend.WorkerClasses = []tss.WorkerClass{{Name: "fast", Count: 64, Speed: 2}}
		spec, ok := pointSpec(experiments.SimJob{Workload: chol, Tasks: 600, Seed: 42, Config: cfg})
		if !ok {
			t.Fatal("hetero policy point not expressible")
		}
		if spec.Sim.Machine.Policy != "hetero" || len(spec.Sim.Machine.Classes) != 1 {
			t.Fatalf("policy/classes lost: %+v", spec.Sim.Machine)
		}
		// A fifo point and the same point with a policy must not share a key.
		plain, ok := pointSpec(experiments.SimJob{Workload: chol, Tasks: 600, Seed: 42, Config: base()})
		if !ok {
			t.Fatal("baseline point not expressible")
		}
		if spec.Key() == plain.Key() {
			t.Fatal("policy point aliases the fifo point's key")
		}
	})

	t.Run("schedule recording is an observer", func(t *testing.T) {
		// The sweeps inherit RecordSchedule=true from the engine default
		// while the daemon always runs with it off; since it never affects
		// the result payload the point must still be expressible.
		cfg := base()
		cfg.Backend.RecordSchedule = true
		if _, ok := pointSpec(experiments.SimJob{Workload: chol, Tasks: 600, Seed: 42, Config: cfg}); !ok {
			t.Fatal("schedule-recording config not expressible")
		}
	})

	t.Run("rejections", func(t *testing.T) {
		aligned := base()
		bad := []struct {
			name string
			job  experiments.SimJob
		}{
			{"zero tasks", experiments.SimJob{Workload: chol, Tasks: 0, Seed: 42, Config: aligned}},
			{"sub-KB TRS capacity", func() experiments.SimJob {
				cfg := base()
				cfg.Frontend.TRSBytesEach = 1000
				return experiments.SimJob{Workload: chol, Tasks: 600, Seed: 42, Config: cfg}
			}()},
			{"unknown runtime", func() experiments.SimJob {
				cfg := base()
				cfg.Runtime = tss.RuntimeKind(99)
				return experiments.SimJob{Workload: chol, Tasks: 600, Seed: 42, Config: cfg}
			}()},
		}
		for _, tc := range bad {
			if _, ok := pointSpec(tc.job); ok {
				t.Errorf("%s accepted — the key would not address this simulation", tc.name)
			}
		}
	})
}

// OVTKB is a semantic machine knob: changing only it must change the
// content address, and leaving it defaulted must alias the symmetric ORTKB
// sizing (the paper's default) so existing keys stay stable.
func TestOVTKBKeying(t *testing.T) {
	sym := fig12PointSpec("cholesky", 8, 2)
	if err := sym.Normalize(); err != nil {
		t.Fatal(err)
	}
	defaulted := fig12PointSpec("cholesky", 8, 2)
	defaulted.Sim.Machine.OVTKB = 0 // omitted on the wire
	if err := defaulted.Normalize(); err != nil {
		t.Fatal(err)
	}
	if defaulted.Sim.Machine.OVTKB != defaulted.Sim.Machine.ORTKB {
		t.Fatalf("omitted OVTKB normalized to %d, want ORTKB %d",
			defaulted.Sim.Machine.OVTKB, defaulted.Sim.Machine.ORTKB)
	}
	if defaulted.Key() != sym.Key() {
		t.Fatal("omitted OVTKB does not alias the symmetric sizing")
	}
	asym := fig12PointSpec("cholesky", 8, 2)
	asym.Sim.Machine.OVTKB = 256
	if err := asym.Normalize(); err != nil {
		t.Fatal(err)
	}
	if asym.Key() == sym.Key() {
		t.Fatal("changing OVTKB alone did not change the key")
	}
}
