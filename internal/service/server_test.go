package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tasksuperscalar/internal/experiments"
	"tasksuperscalar/internal/workloads"
	"tasksuperscalar/tss"
)

// startDaemon spins up a full tssd over httptest and returns a client for it.
func startDaemon(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, NewClient(hs.URL)
}

func ip(v int) *int { return &v }

func i64p(v int64) *int64 { return &v }

func simSpec(workload string, tasks int, seed int64, cores int) *JobSpec {
	return &JobSpec{
		Kind: KindSim,
		Sim: &SimSpec{
			Workload: workload, Tasks: &tasks, Seed: &seed,
			Machine: MachineSpec{Cores: cores},
		},
	}
}

// The tentpole end-to-end path: submit → SSE progress → result, with the
// result byte-identical to a direct in-process run of the same spec, and a
// second identical submission answered from the cache (verified by the
// /stats hit counter) with the same bytes.
func TestSubmitSSEResultAndCacheHit(t *testing.T) {
	_, cl := startDaemon(t, Config{Workers: 2})
	ctx := context.Background()

	spec := simSpec("cholesky", 6000, 7, 64)

	// Direct run of the same spec, through the same normalize/config path
	// a daemon uses.
	directSpec := simSpec("cholesky", 6000, 7, 64)
	if err := directSpec.Normalize(); err != nil {
		t.Fatal(err)
	}
	wl, _ := workloads.ByName(directSpec.Sim.Workload)
	b := wl.Gen(*directSpec.Sim.Tasks, *directSpec.Sim.Seed)
	res, err := tss.RunTasks(b.Tasks, directSpec.Sim.Config())
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeSimResult(directSpec.Sim, res)
	if err != nil {
		t.Fatal(err)
	}

	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cached {
		t.Fatal("first submission must not be a cache hit")
	}

	var progress []struct{ Done, Total uint64 }
	var sawResult []byte
	final, err := cl.Wait(ctx, st.ID, func(ev Event) {
		switch ev.Type {
		case "progress":
			var p struct{ Done, Total uint64 }
			if err := json.Unmarshal(ev.Data, &p); err != nil {
				t.Errorf("bad progress payload %q: %v", ev.Data, err)
			}
			progress = append(progress, p)
		case "result":
			sawResult = append([]byte(nil), ev.Data...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if len(progress) < 2 {
		t.Fatalf("want at least 2 SSE progress events, got %d", len(progress))
	}
	last := progress[len(progress)-1]
	if last.Done != last.Total || last.Total == 0 {
		t.Fatalf("final progress %d/%d, want complete", last.Done, last.Total)
	}

	got, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon result differs from direct run:\n got: %s\nwant: %s", got, want)
	}
	if !bytes.Equal(sawResult, want) {
		t.Fatalf("SSE result event differs from direct run")
	}

	// Second identical submission: served from cache, byte-identical,
	// hit counter incremented, and no second simulation ran.
	before, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := cl.Submit(ctx, simSpec("cholesky", 6000, 7, 64))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.Status != StatusDone {
		t.Fatalf("second submission: cached=%v status=%s, want cached done", st2.Cached, st2.Status)
	}
	if st2.Key != st.Key {
		t.Fatalf("identical specs got different keys %s vs %s", st.Key, st2.Key)
	}
	got2, err := cl.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("cached result not byte-identical to the original run")
	}
	after, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cache.Hits != before.Cache.Hits+1 {
		t.Fatalf("cache hits %d → %d, want +1", before.Cache.Hits, after.Cache.Hits)
	}
	if after.Completed != before.Completed {
		t.Fatalf("completed executions changed %d → %d: the cache hit re-simulated",
			before.Completed, after.Completed)
	}
}

// Defaulted and explicit-default specs must share one content address, and
// workload names are case-insensitive.
func TestSpecNormalizationSharesKeys(t *testing.T) {
	a := &JobSpec{Kind: KindSim, Sim: &SimSpec{Workload: "CHOLESKY"}}
	b := simSpec("cholesky", 3000, 42, 256)
	for _, s := range []*JobSpec{a, b} {
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Key() != b.Key() {
		t.Fatalf("defaulted spec key %s != explicit default key %s", a.Key(), b.Key())
	}
}

// An explicit zero seed is a legitimate seed: it must survive normalization
// (not be rewritten to the default) and address a different result than the
// default. Explicit zero task budgets are rejected, not defaulted.
func TestExplicitZeroSeedHonored(t *testing.T) {
	zero := simSpec("cholesky", 3000, 0, 256)
	if err := zero.Normalize(); err != nil {
		t.Fatal(err)
	}
	if *zero.Sim.Seed != 0 {
		t.Fatalf("explicit seed 0 rewritten to %d", *zero.Sim.Seed)
	}
	def := &JobSpec{Kind: KindSim, Sim: &SimSpec{Workload: "cholesky"}}
	if err := def.Normalize(); err != nil {
		t.Fatal(err)
	}
	if zero.Key() == def.Key() {
		t.Fatal("seed 0 and default seed share a key")
	}

	sweepZero := &JobSpec{Kind: KindSweep, Sweep: &SweepSpec{Experiment: "table1", Seed: i64p(0)}}
	if err := sweepZero.Normalize(); err != nil {
		t.Fatal(err)
	}
	if *sweepZero.Sweep.Seed != 0 {
		t.Fatalf("explicit sweep seed 0 rewritten to %d", *sweepZero.Sweep.Seed)
	}

	badTasks := simSpec("cholesky", 0, 7, 256)
	if err := badTasks.Normalize(); err == nil {
		t.Fatal("explicit tasks 0 accepted")
	}
}

// A sweep job's output and points must match a direct run of the same
// experiment, and its output must stream back as SSE log events.
func TestSweepJobMatchesDirectRun(t *testing.T) {
	_, cl := startDaemon(t, Config{Workers: 2})
	ctx := context.Background()

	var buf bytes.Buffer
	sink := &experiments.Sink{}
	e, _ := experiments.Get("table1")
	if err := e.Run(&buf, experiments.Options{Quick: true, Seed: 42, Cores: 256, Workers: 1, Sink: sink}); err != nil {
		t.Fatal(err)
	}

	st, err := cl.Submit(ctx, &JobSpec{Kind: KindSweep, Sweep: &SweepSpec{Experiment: "table1"}})
	if err != nil {
		t.Fatal(err)
	}
	var logLines []string
	final, err := cl.Wait(ctx, st.ID, func(ev Event) {
		if ev.Type == "log" {
			var l struct{ Line string }
			if err := json.Unmarshal(ev.Data, &l); err != nil {
				t.Errorf("bad log payload: %v", err)
			}
			logLines = append(logLines, l.Line)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("sweep ended %s: %s", final.Status, final.Error)
	}
	var res SweepResult
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Output != buf.String() {
		t.Fatalf("sweep output differs from direct run:\n got: %q\nwant: %q", res.Output, buf.String())
	}
	if want := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n"); len(logLines) != len(want) {
		t.Fatalf("streamed %d log lines, direct output has %d", len(logLines), len(want))
	}
	if len(res.Points) != len(sink.Points()) {
		t.Fatalf("sweep returned %d points, direct run recorded %d", len(res.Points), len(sink.Points()))
	}
}

// The acceptance bar: ≥32 concurrent sweep-job clients (plus sim clients)
// against one daemon under -race, with every client of the same key
// observing byte-identical results, and submissions either simulated once,
// coalesced onto an in-flight run, or served from cache — never re-run.
func TestConcurrentClients(t *testing.T) {
	srv, cl := startDaemon(t, Config{Workers: 4})
	ctx := context.Background()

	// Eight distinct job contents shared by 40 clients: six sweep specs
	// (different seeds so they cannot coalesce with each other) and two
	// sim specs.
	specs := make([]*JobSpec, 0, 8)
	for i := 0; i < 6; i++ {
		specs = append(specs, &JobSpec{Kind: KindSweep,
			Sweep: &SweepSpec{Experiment: "table1", Seed: i64p(int64(100 + i))}})
	}
	specs = append(specs,
		simSpec("matmul", 400, 5, 16),
		simSpec("fft", 400, 9, 16),
	)

	const clients = 40
	results := make([]struct {
		key   string
		bytes []byte
	}, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := specs[i%len(specs)]
			st, err := cl.Submit(ctx, spec)
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
					t.Errorf("client %d job %s: %s", i, st.Status, st.Error)
					return
				}
			}
			body, err := cl.Result(ctx, st.ID)
			if err != nil {
				t.Errorf("client %d result: %v", i, err)
				return
			}
			results[i].key = st.Key
			results[i].bytes = body
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every client holding the same key must hold identical bytes.
	byKey := map[string][]byte{}
	for i, r := range results {
		if prev, ok := byKey[r.key]; ok {
			if !bytes.Equal(prev, r.bytes) {
				t.Fatalf("client %d: result bytes diverge for key %s", i, r.key)
			}
		} else {
			byKey[r.key] = r.bytes
		}
	}
	if len(byKey) != len(specs) {
		t.Fatalf("saw %d distinct keys, want %d", len(byKey), len(specs))
	}

	// Conservation: every submission was either a fresh execution, a
	// coalesce onto one, or a cache/disk hit — and only len(specs)
	// executions ever ran. (Job-level CacheHits, not store-level
	// Cache.Hits: sweep sharding probes the store once per point.)
	st := srv.Stats()
	if st.Completed != uint64(len(specs)) {
		t.Fatalf("ran %d executions for %d distinct specs", st.Completed, len(specs))
	}
	if got := st.Completed + st.Coalesced + st.CacheHits + st.DiskHits; got != clients {
		t.Fatalf("executions(%d) + coalesced(%d) + cache(%d) + disk(%d) = %d, want %d submissions",
			st.Completed, st.Coalesced, st.CacheHits, st.DiskHits, got, clients)
	}
	if st.Failed != 0 || st.Inflight != 0 {
		t.Fatalf("failed=%d inflight=%d after drain", st.Failed, st.Inflight)
	}

	// A repeat wave of every spec is now answered entirely from cache.
	for i, spec := range specs {
		st, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached {
			t.Fatalf("repeat submission %d not served from cache", i)
		}
		body, err := cl.Result(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, byKey[st.Key]) {
			t.Fatalf("repeat submission %d: cached bytes differ", i)
		}
	}
}

// Beyond MaxJobs the oldest finished job records — and the result bytes
// their executions pin — are evicted (404 afterwards), so daemon memory is
// bounded by the LRU cache plus MaxJobs records, not the submission history.
func TestJobRegistryBounded(t *testing.T) {
	srv, cl := startDaemon(t, Config{Workers: 2, MaxJobs: 3})
	ctx := context.Background()
	var firstID string
	for i := 0; i < 6; i++ {
		st, err := cl.Submit(ctx, simSpec("cholesky", 600, int64(i+1), 8))
		if err != nil {
			t.Fatal(err)
		}
		if st, err = cl.Wait(ctx, st.ID, nil); err != nil || st.Status != StatusDone {
			t.Fatalf("job %d: %v / %+v", i, err, st)
		}
		if i == 0 {
			firstID = st.ID
		}
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n > 3 {
		t.Fatalf("registry holds %d records, bound is 3", n)
	}
	if _, err := cl.Job(ctx, firstID); err == nil {
		t.Fatalf("oldest job %s should have been evicted", firstID)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, cl := startDaemon(t, Config{Workers: 1})
	ctx := context.Background()
	bad := []*JobSpec{
		{},
		{Kind: "simulate"},
		{Kind: KindSim},
		{Kind: KindSim, Sim: &SimSpec{Workload: "nope"}},
		{Kind: KindSim, Sim: &SimSpec{Workload: "cholesky", Machine: MachineSpec{Runtime: "quantum"}}},
		{Kind: KindSweep, Sweep: &SweepSpec{Experiment: "fig99"}},
		{Kind: KindSweep, Sweep: &SweepSpec{Experiment: "fig12"}, Sim: &SimSpec{Workload: "fft"}},
	}
	for i, spec := range bad {
		if _, err := cl.Submit(ctx, spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := cl.Job(ctx, "job-999"); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Errorf("unknown job lookup: %v", err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 0 {
		t.Errorf("rejected specs counted as submissions: %d", stats.Submitted)
	}
}

// Identical fingerprints must guarantee identical results across distinct
// machine-shape specs too: a spec differing in any machine knob gets a
// different key.
func TestKeySensitivity(t *testing.T) {
	base := simSpec("cholesky", 6000, 7, 64)
	if err := base.Normalize(); err != nil {
		t.Fatal(err)
	}
	variants := []*JobSpec{
		simSpec("cholesky", 801, 7, 32),
		simSpec("cholesky", 800, 8, 32),
		simSpec("cholesky", 800, 7, 64),
		simSpec("matmul", 800, 7, 32),
		{Kind: KindSim, Sim: &SimSpec{Workload: "cholesky", Tasks: ip(800), Seed: i64p(7),
			Machine: MachineSpec{Cores: 32, Runtime: "software"}}},
		{Kind: KindSim, Sim: &SimSpec{Workload: "cholesky", Tasks: ip(800), Seed: i64p(7),
			Machine: MachineSpec{Cores: 32, Memory: true}}},
		{Kind: KindSim, Sim: &SimSpec{Workload: "cholesky", Tasks: ip(800), Seed: i64p(7),
			Machine: MachineSpec{Cores: 32, TRS: 4}}},
	}
	seen := map[string]int{base.Key(): -1}
	for i, v := range variants {
		if err := v.Normalize(); err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[v.Key()]; dup {
			t.Errorf("variant %d key collides with %d", i, prev)
		}
		seen[v.Key()] = i
	}
}

// A job's polled status must close the full lifecycle and carry final
// progress; fetching the result of a job that failed reports the error.
func TestJobLifecycleAndFailureSurface(t *testing.T) {
	_, cl := startDaemon(t, Config{Workers: 1})
	ctx := context.Background()

	st, err := cl.Submit(ctx, simSpec("cholesky", 600, 3, 8))
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	if final.Done == 0 || final.Done != final.Total {
		t.Fatalf("final progress %d/%d, want complete and nonzero", final.Done, final.Total)
	}
	if len(final.Key) != 64 {
		t.Fatalf("key %q is not a hex sha256", final.Key)
	}
}

// Shutdown calls compose: Kill then Close, Close then Kill, and Close twice
// all return, on a plain daemon and on a dispatcher, whose fleet stop
// channel both calls would otherwise close.
func TestKillCloseIdempotent(t *testing.T) {
	orders := []struct {
		name string
		shut func(*Server)
	}{
		{"kill then close", func(s *Server) { s.Kill(); s.Close() }},
		{"close then kill", func(s *Server) { s.Close(); s.Kill() }},
		{"close twice", func(s *Server) { s.Close(); s.Close() }},
	}
	for _, mode := range []struct {
		name string
		cfg  Config
	}{{"daemon", Config{Workers: 1}}, {"dispatcher", Config{Fleet: true}}} {
		for _, o := range orders {
			t.Run(mode.name+"/"+o.name, func(t *testing.T) {
				srv, err := New(mode.cfg)
				if err != nil {
					t.Fatal(err)
				}
				o.shut(srv)
			})
		}
	}
}
