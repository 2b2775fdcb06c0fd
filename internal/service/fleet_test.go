package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fleetWorker is one in-process worker daemon for fleet tests.
type fleetWorker struct {
	srv *Server
	hs  *httptest.Server
}

// kill severs every open connection to the worker (the dispatcher's SSE
// relay included) without stopping its HTTP listener — the shape of a node
// whose network died mid-job.
func (w *fleetWorker) kill() { w.hs.CloseClientConnections() }

// startFleet spins up a dispatcher with n registered in-process workers.
func startFleet(t *testing.T, n int, workerCfg Config) (*Server, *Client, []*fleetWorker) {
	t.Helper()
	disp, err := New(Config{Fleet: true, QueueDepth: 256, NoWorkerWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	dhs := httptest.NewServer(disp.Handler())
	dcl := NewClient(dhs.URL)

	workers := make([]*fleetWorker, n)
	for i := range workers {
		wsrv, err := New(workerCfg)
		if err != nil {
			t.Fatal(err)
		}
		whs := httptest.NewServer(wsrv.Handler())
		workers[i] = &fleetWorker{srv: wsrv, hs: whs}
		if _, err := dcl.JoinWorker(context.Background(), whs.URL); err != nil {
			t.Fatalf("registering worker %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		dhs.Close()
		disp.Close()
		for _, w := range workers {
			w.hs.Close()
			w.srv.Close()
		}
	})
	return disp, dcl, workers
}

// The fleet acceptance bar, part 1: a job submitted to a dispatcher backed
// by two workers returns a result byte-identical to the direct in-process
// run of the same spec, with progress relayed through the dispatcher's SSE
// stream; a repeat submission is a dispatcher-side cache hit that touches no
// worker.
func TestFleetDispatchByteIdentical(t *testing.T) {
	disp, cl, workers := startFleet(t, 2, Config{Workers: 2})
	ctx := context.Background()

	spec := simSpec("cholesky", 6000, 11, 64)
	direct := simSpec("cholesky", 6000, 11, 64)
	if err := direct.Normalize(); err != nil {
		t.Fatal(err)
	}
	want, err := RunSpec(direct)
	if err != nil {
		t.Fatal(err)
	}

	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var progress int
	fin, err := cl.Wait(ctx, st.ID, func(ev Event) {
		if ev.Type == "progress" {
			progress++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != StatusDone {
		t.Fatalf("fleet job ended %s: %s", fin.Status, fin.Error)
	}
	if progress < 2 {
		t.Fatalf("only %d progress events relayed through the dispatcher", progress)
	}
	got, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet result differs from direct run:\n got: %s\nwant: %s", got, want)
	}

	// Exactly one worker executed it.
	var workerRuns uint64
	for _, w := range workers {
		workerRuns += w.srv.Stats().Completed
	}
	if workerRuns != 1 {
		t.Fatalf("%d worker executions for one job", workerRuns)
	}

	// Repeat: dispatcher-side cache hit, same bytes, still one worker run.
	st2, err := cl.Submit(ctx, simSpec("cholesky", 6000, 11, 64))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.Status != StatusDone {
		t.Fatalf("repeat: cached=%v status=%s, want cached done", st2.Cached, st2.Status)
	}
	got2, err := cl.Result(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Fatal("dispatcher-cached result not byte-identical")
	}
	workerRuns = 0
	for _, w := range workers {
		workerRuns += w.srv.Stats().Completed
	}
	if workerRuns != 1 {
		t.Fatalf("cache hit re-dispatched: %d worker executions", workerRuns)
	}
	if ds := disp.Stats(); ds.Fleet == nil || len(ds.Fleet.Workers) != 2 {
		t.Fatalf("dispatcher stats missing fleet section: %+v", disp.Stats())
	}
}

// The fleet acceptance bar, part 2: killing the executing worker mid-job
// retries the job on another node and still yields bytes identical to the
// direct run.
func TestFleetWorkerDeathMidJobRetries(t *testing.T) {
	disp, cl, workers := startFleet(t, 2, Config{Workers: 2})
	ctx := context.Background()

	spec := longSpec(23)
	direct := longSpec(23)
	if err := direct.Normalize(); err != nil {
		t.Fatal(err)
	}
	want, err := RunSpec(direct)
	if err != nil {
		t.Fatal(err)
	}

	st, err := cl.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is demonstrably mid-run (progress relayed from a
	// worker), then find the executing worker and cut its connections.
	waitFor(t, cl, st.ID, func(s *SubmitStatus) bool {
		return s.Status == StatusRunning && s.Done > 0
	}, "running with relayed progress")
	var executing *fleetWorker
	for _, w := range workers {
		if w.srv.Stats().Inflight > 0 {
			executing = w
			break
		}
	}
	if executing == nil {
		t.Fatal("no worker reports the job inflight")
	}
	executing.kill()

	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusDone {
		t.Fatalf("job ended %s after worker death: %s", fin.Status, fin.Error)
	}
	got, err := cl.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("retried result differs from direct run:\n got: %.80s…\nwant: %.80s…", got, want)
	}
	ds := disp.Stats()
	if ds.Fleet.Retries == 0 {
		t.Fatal("dispatcher recorded no retry for the killed worker")
	}
	if ds.Completed != 1 || ds.Failed != 0 {
		t.Fatalf("dispatcher counters after retry: completed=%d failed=%d", ds.Completed, ds.Failed)
	}
	// The abandoned job on the severed-but-alive worker was best-effort
	// cancelled rather than left burning its pool slot to completion.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ws := executing.srv.Stats()
		if ws.Inflight == 0 {
			if ws.Cancelled+ws.Completed != 1 {
				t.Fatalf("killed worker settled oddly: %+v", ws)
			}
			if ws.Cancelled != 1 {
				t.Logf("note: abandoned job completed before the cancel landed (completed=%d)", ws.Completed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned job never settled on the killed worker: %+v", ws)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Cancelling a dispatched job propagates to the executing worker: the
// dispatcher job ends cancelled and the worker's own record of it settles as
// cancelled too (its engine stopped cooperatively).
func TestFleetCancelPropagatesToWorker(t *testing.T) {
	_, cl, workers := startFleet(t, 1, Config{Workers: 1})
	ctx := context.Background()

	st, err := cl.Submit(ctx, longSpec(29))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, cl, st.ID, func(s *SubmitStatus) bool {
		return s.Status == StatusRunning && s.Done > 0
	}, "running")
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusCancelled {
		t.Fatalf("dispatcher job ended %s", fin.Status)
	}
	// The worker's execution settles cancelled as well (poll: the DELETE
	// relay is best-effort asynchronous with respect to our view).
	deadline := time.Now().Add(30 * time.Second)
	for {
		ws := workers[0].srv.Stats()
		if ws.Cancelled == 1 && ws.Inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never settled the cancelled job: %+v", ws)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Two dispatchers registered as each other's workers form a dispatch cycle;
// the dispatch-path header must break it into a loud failure instead of a
// circular wait (each side would otherwise coalesce the job with itself).
func TestFleetDispatchCycleFailsFast(t *testing.T) {
	mk := func() (*Server, *httptest.Server, *Client) {
		d, err := New(Config{Fleet: true})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(d.Handler())
		return d, hs, NewClient(hs.URL)
	}
	ad, ahs, acl := mk()
	bd, bhs, bcl := mk()
	ctx := context.Background()
	if _, err := acl.JoinWorker(ctx, bhs.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := bcl.JoinWorker(ctx, ahs.URL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ahs.Close(); bhs.Close(); ad.Close(); bd.Close() })

	st, err := acl.Submit(ctx, quickSpec(47))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, acl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusFailed {
		t.Fatalf("cyclic fleet job ended %s, want a loud failure", fin.Status)
	}
	if !strings.Contains(fin.Error, "loop") && !strings.Contains(fin.Error, "worker") {
		t.Fatalf("failure does not surface the loop: %s", fin.Error)
	}
	// The loop is the job's fault, not a worker's: neither dispatcher
	// retries it or trips its peer's breaker.
	for name, d := range map[string]*Server{"A": ad, "B": bd} {
		fs := d.Stats().Fleet
		if fs.Retries != 0 {
			t.Fatalf("dispatcher %s retried the looping job %d times", name, fs.Retries)
		}
		if w := fs.Workers[0]; w.Breaker != BreakerClosed {
			t.Fatalf("dispatcher %s left its worker's breaker %s", name, w.Breaker)
		}
	}
}

// A dispatcher with no live workers fails the job rather than hanging.
func TestFleetNoWorkersFailsFast(t *testing.T) {
	// NoWorkerWait < 0 opts out of graceful degradation: with no workers
	// joined, dispatch fails the job immediately instead of waiting for one
	// to appear (see TestFleetNoWorkerWaitDegradation for the default).
	disp, err := New(Config{Fleet: true, NoWorkerWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	dhs := httptest.NewServer(disp.Handler())
	t.Cleanup(func() { dhs.Close(); disp.Close() })
	cl := NewClient(dhs.URL)
	ctx := context.Background()

	st, err := cl.Submit(ctx, quickSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusFailed {
		t.Fatalf("job on empty fleet ended %s", fin.Status)
	}
}

// The fleet concurrency bar: a dispatcher over 3 workers serving 40
// concurrent clients under -race. Every client of the same key observes
// byte-identical bytes; the conservation invariant extends across nodes —
// dispatcher-side, completed + coalesced + cache hits == submissions, and
// the dispatched executions all landed on (and only on) the workers.
func TestFleetConcurrentClients(t *testing.T) {
	disp, cl, workers := startFleet(t, 3, Config{Workers: 2})
	ctx := context.Background()

	// Eight distinct job contents shared by 40 clients: six sweeps with
	// different seeds plus two sims (mirrors the single-node concurrency
	// test, now fanned across nodes).
	specs := make([]*JobSpec, 0, 8)
	for i := 0; i < 6; i++ {
		specs = append(specs, &JobSpec{Kind: KindSweep,
			Sweep: &SweepSpec{Experiment: "table1", Seed: i64p(int64(200 + i))}})
	}
	specs = append(specs,
		simSpec("matmul", 400, 15, 16),
		simSpec("fft", 400, 19, 16),
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

	// Conservation at the dispatcher… (job-level CacheHits/DiskHits, not
	// store-level Cache.Hits: sweep sharding probes the store per point)
	ds := disp.Stats()
	if ds.Completed != uint64(len(specs)) {
		t.Fatalf("dispatched %d executions for %d distinct specs", ds.Completed, len(specs))
	}
	if got := ds.Completed + ds.Coalesced + ds.CacheHits + ds.DiskHits; got != clients {
		t.Fatalf("completed(%d) + coalesced(%d) + cache(%d) + disk(%d) = %d, want %d submissions",
			ds.Completed, ds.Coalesced, ds.CacheHits, ds.DiskHits, got, clients)
	}
	if ds.Failed != 0 || ds.Cancelled != 0 || ds.Inflight != 0 {
		t.Fatalf("failed=%d cancelled=%d inflight=%d after drain", ds.Failed, ds.Cancelled, ds.Inflight)
	}
	// …and extends across the nodes. Sweeps are sharded on the dispatcher
	// (table1 runs no constituent simulations, so it contributes no
	// points); what reaches the workers is the sim jobs plus every
	// fleet-executed sweep point, each settling on its worker as exactly
	// one run, coalesce, or cache hit.
	const simSpecs = 2
	if ds.Shard.Points != ds.Shard.MemHits+ds.Shard.DiskHits+ds.Shard.Coalesced+ds.Shard.Simulated+ds.Shard.Inline+ds.Shard.Failed {
		t.Fatalf("shard conservation violated: %+v", ds.Shard)
	}
	var workerRuns, workerHitsCoalesces uint64
	for _, w := range workers {
		ws := w.srv.Stats()
		workerRuns += ws.Completed
		workerHitsCoalesces += ws.CacheHits + ws.DiskHits + ws.Coalesced
		if ws.Failed != 0 || ws.Inflight != 0 {
			t.Fatalf("worker settled dirty: %+v", ws)
		}
	}
	if workerRuns+workerHitsCoalesces != simSpecs+ds.Shard.Simulated {
		t.Fatalf("workers ran %d + answered %d from cache/coalesce, dispatcher sent %d sims + %d points",
			workerRuns, workerHitsCoalesces, simSpecs, ds.Shard.Simulated)
	}
	if ds.Fleet.Retries != 0 {
		t.Fatalf("%d unexpected retries with healthy workers", ds.Fleet.Retries)
	}

	// A repeat wave of every spec is answered from the dispatcher cache
	// without touching the fleet.
	for i, spec := range specs {
		st, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Cached {
			t.Fatalf("repeat submission %d not served from the dispatcher cache", i)
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

// Worker registration is idempotent by URL, validated (unreachable and
// self-referential URLs are rejected), listable, and removable.
func TestFleetWorkerRegistry(t *testing.T) {
	_, cl, workers := startFleet(t, 2, Config{Workers: 1})
	ctx := context.Background()

	// The dispatcher must refuse to register itself as its own worker
	// (self-dispatch would coalesce a job with itself and deadlock) and
	// must refuse a worker it cannot reach.
	if _, err := cl.JoinWorker(ctx, cl.Base()); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Fatalf("self-join: %v, want rejection naming the dispatcher itself", err)
	}
	if _, err := cl.JoinWorker(ctx, "http://127.0.0.1:1"); err == nil {
		t.Fatal("unreachable worker URL accepted")
	}

	// Re-joining the same URL returns the existing registration.
	again, err := cl.JoinWorker(ctx, workers[0].hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("re-join duplicated the worker: %d registered", len(ws))
	}
	if again.ID != ws[0].ID {
		t.Fatalf("re-join returned %s, want existing %s", again.ID, ws[0].ID)
	}

	// Deregistration removes the node (and is 404 the second time).
	req, err := http.NewRequest(http.MethodDelete, cl.Base()+"/v1/workers/"+ws[1].ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cl.httpClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE worker: %s", resp.Status)
	}
	left, err := cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 {
		t.Fatalf("%d workers after deregistration, want 1", len(left))
	}
	resp, err = cl.httpClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("double worker DELETE: %s, want 404", resp.Status)
	}
}
