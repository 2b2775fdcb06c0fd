package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Backoff jitter bounds: every delay lands in [d/2, 3d/2) of the unjittered
// exponential, the exponential caps at max, and the stream is a pure
// function of its seed.
func TestBackoffJitterBounds(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	a := newBackoff(base, max, 42)
	b := newBackoff(base, max, 42)
	d := base
	for i := 0; i < 20; i++ {
		got := a.next()
		if got2 := b.next(); got != got2 {
			t.Fatalf("step %d: same-seed backoffs disagree: %v vs %v", i, got, got2)
		}
		if got < d/2 || got >= d/2+d {
			t.Fatalf("step %d: delay %v outside [%v, %v)", i, got, d/2, d/2+d)
		}
		if d < max {
			d *= 2
			if d > max {
				d = max
			}
		}
	}
	// Distinct seeds should diverge somewhere in 20 draws.
	c := newBackoff(base, max, 43)
	a2 := newBackoff(base, max, 42)
	diverged := false
	for i := 0; i < 20; i++ {
		if c.next() != a2.next() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical backoff streams")
	}
	if seedFromString("worker-a") == seedFromString("worker-b") {
		t.Fatal("seedFromString collided on distinct inputs")
	}
}

// flakyWorker fronts a real worker daemon with a proxy that fails POST
// /v1/jobs while `failing` is set, or for the next `failNext` submissions,
// and fails GET /healthz while `healthzDown` is set (everything else — SSE,
// results — passes through), which is how tests produce worker-level
// dispatch and liveness failures on demand.
type flakyWorker struct {
	srv         *Server
	hs          *httptest.Server // the real worker
	proxy       *httptest.Server // what the dispatcher sees
	failing     atomic.Bool
	failNext    atomic.Int64
	healthzDown atomic.Bool
}

func newFlakyWorker(t *testing.T, cfg Config) *flakyWorker {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	u, _ := url.Parse(hs.URL)
	rp := httputil.NewSingleHostReverseProxy(u)
	fw := &flakyWorker{srv: srv, hs: hs}
	fw.proxy = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && (fw.failing.Load() || fw.failNext.Add(-1) >= 0) {
			http.Error(w, "injected worker failure", http.StatusBadGateway)
			return
		}
		if fw.healthzDown.Load() && r.URL.Path == "/healthz" {
			http.Error(w, "injected healthz failure", http.StatusBadGateway)
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { fw.proxy.Close(); hs.Close(); srv.Close() })
	return fw
}

// The retry accounting bar: a worker that fails twice and then recovers
// costs exactly two budget units, the job still succeeds, and the
// conservation identity sum(worker.Failures) == Retries + Exhausted holds.
func TestFleetRetryAccountingConserved(t *testing.T) {
	disp, err := New(Config{
		Fleet: true, DispatchRetry: RetryPolicy{Attempts: 6, Base: time.Millisecond, Max: 5 * time.Millisecond},
		BreakerThreshold: 10, // keep the breaker out of this test
	})
	if err != nil {
		t.Fatal(err)
	}
	dhs := httptest.NewServer(disp.Handler())
	t.Cleanup(func() { dhs.Close(); disp.Close() })
	cl := NewClient(dhs.URL)
	ctx := context.Background()

	fw := newFlakyWorker(t, Config{Workers: 2})
	if _, err := cl.JoinWorker(ctx, fw.proxy.URL); err != nil {
		t.Fatal(err)
	}

	// The worker eats two submissions, then recovers.
	fw.failNext.Store(2)

	st, err := cl.Submit(ctx, quickSpec(51))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusDone {
		t.Fatalf("job through flaky worker ended %s: %s", fin.Status, fin.Error)
	}

	fs := disp.Stats().Fleet
	if fs.Retries != 2 || fs.Exhausted != 0 {
		t.Fatalf("retries=%d exhausted=%d, want 2/0", fs.Retries, fs.Exhausted)
	}
	var failures uint64
	for _, w := range fs.Workers {
		failures += w.Failures
	}
	if failures != fs.Retries+fs.Exhausted {
		t.Fatalf("conservation: worker failures %d != retries %d + exhausted %d",
			failures, fs.Retries, fs.Exhausted)
	}
	// The recovery closed the breaker and returned the worker to healthy.
	if w := fs.Workers[0]; w.Breaker != BreakerClosed || w.State != WorkerHealthy {
		t.Fatalf("recovered worker: breaker=%s state=%s", w.Breaker, w.State)
	}
}

// A worker that never recovers: the job fails once the budget is spent, with
// Exhausted counting it and the conservation identity intact.
func TestFleetRetryBudgetExhausted(t *testing.T) {
	disp, err := New(Config{
		Fleet: true, DispatchRetry: RetryPolicy{Attempts: 4, Base: time.Millisecond, Max: 5 * time.Millisecond},
		BreakerThreshold: 2, BreakerCooldown: 2 * time.Millisecond,
		NoWorkerWait: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dhs := httptest.NewServer(disp.Handler())
	t.Cleanup(func() { dhs.Close(); disp.Close() })
	cl := NewClient(dhs.URL)
	ctx := context.Background()

	fw := newFlakyWorker(t, Config{Workers: 1})
	if _, err := cl.JoinWorker(ctx, fw.proxy.URL); err != nil {
		t.Fatal(err)
	}
	fw.failing.Store(true)

	st, err := cl.Submit(ctx, quickSpec(52))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "retry budget exhausted") {
		t.Fatalf("exhausted job: status=%s error=%q", fin.Status, fin.Error)
	}

	fs := disp.Stats().Fleet
	if fs.Exhausted != 1 || fs.Retries != 3 {
		t.Fatalf("retries=%d exhausted=%d, want 3/1", fs.Retries, fs.Exhausted)
	}
	var failures uint64
	for _, w := range fs.Workers {
		failures += w.Failures
	}
	if failures != fs.Retries+fs.Exhausted {
		t.Fatalf("conservation: worker failures %d != retries+exhausted %d",
			failures, fs.Retries+fs.Exhausted)
	}
	if w := fs.Workers[0]; w.BreakerTrips == 0 {
		t.Fatalf("persistently failing worker never tripped its breaker: %+v", w)
	}
}

// The breaker lifecycle: consecutive failures trip the worker out of the
// rotation, and after the cooldown a half-open probe job whose success
// closes the breaker returns it — no operator action, no re-registration.
func TestBreakerHalfOpenRevival(t *testing.T) {
	disp, err := New(Config{
		Fleet: true, DispatchRetry: RetryPolicy{Attempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond},
		BreakerThreshold: 2, BreakerCooldown: 10 * time.Millisecond,
		NoWorkerWait: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dhs := httptest.NewServer(disp.Handler())
	t.Cleanup(func() { dhs.Close(); disp.Close() })
	cl := NewClient(dhs.URL)
	ctx := context.Background()

	fw := newFlakyWorker(t, Config{Workers: 2})
	if _, err := cl.JoinWorker(ctx, fw.proxy.URL); err != nil {
		t.Fatal(err)
	}

	// Job 1 burns its budget (2 failures ≥ threshold): the breaker trips.
	fw.failing.Store(true)
	st, err := cl.Submit(ctx, quickSpec(53))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return s.Status == StatusFailed }, "failed")
	if w := disp.Stats().Fleet.Workers[0]; w.Breaker != BreakerTripped {
		t.Fatalf("after consecutive failures: breaker=%s, want tripped", w.Breaker)
	}

	// Worker recovers; after the cooldown the next job is the half-open
	// probe, succeeds, and closes the breaker.
	fw.failing.Store(false)
	time.Sleep(20 * time.Millisecond)
	st2, err := cl.Submit(ctx, quickSpec(54))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, cl, st2.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusDone {
		t.Fatalf("probe job ended %s: %s", fin.Status, fin.Error)
	}
	if w := disp.Stats().Fleet.Workers[0]; w.Breaker != BreakerClosed || w.BreakerTrips == 0 {
		t.Fatalf("revived worker: breaker=%s trips=%d, want closed/≥1", w.Breaker, w.BreakerTrips)
	}
}

// Per-job deadlines: a job that runs past Config.JobTimeout fails with a
// deadline error instead of wedging a worker forever.
func TestJobDeadline(t *testing.T) {
	srv, err := New(Config{Workers: 1, JobTimeout: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	cl := NewClient(hs.URL)
	ctx := context.Background()

	st, err := cl.Submit(ctx, simSpec("cholesky", 20000, 7, 64))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("overrunning job: status=%s error=%q, want failed with deadline", fin.Status, fin.Error)
	}
}

// Graceful degradation: a dispatcher with zero workers holds the job in the
// dispatch wait instead of failing it, and a worker joining within
// NoWorkerWait picks it up.
func TestFleetNoWorkerWaitDegradation(t *testing.T) {
	disp, err := New(Config{
		Fleet: true, NoWorkerWait: 10 * time.Second,
		DispatchRetry: RetryPolicy{Base: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	dhs := httptest.NewServer(disp.Handler())
	t.Cleanup(func() { dhs.Close(); disp.Close() })
	cl := NewClient(dhs.URL)
	ctx := context.Background()

	st, err := cl.Submit(ctx, quickSpec(55))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if s, err := cl.Job(ctx, st.ID); err != nil || terminalStatus(s.Status) {
		t.Fatalf("job settled (%v, %v) with no workers instead of waiting", s, err)
	}

	wsrv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	whs := httptest.NewServer(wsrv.Handler())
	t.Cleanup(func() { whs.Close(); wsrv.Close() })
	if _, err := cl.JoinWorker(ctx, whs.URL); err != nil {
		t.Fatal(err)
	}

	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusDone {
		t.Fatalf("held job ended %s: %s", fin.Status, fin.Error)
	}
	if fs := disp.Stats().Fleet; fs.Starved == 0 {
		t.Fatalf("starvation wait not counted: %+v", fs)
	}
}

// A registered worker that is down — dispatches and /healthz both fail —
// holds the job in the dispatch wait once its first failure makes it
// suspect: the wait spends no retry budget, so an outage longer than the
// budget lasts still ends with the job done when the worker returns.
func TestFleetNoWorkerWaitUnreachableWorker(t *testing.T) {
	disp, err := New(Config{
		Fleet: true, DispatchRetry: RetryPolicy{Attempts: 3, Base: time.Millisecond, Max: 5 * time.Millisecond},
		NoWorkerWait: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	dhs := httptest.NewServer(disp.Handler())
	t.Cleanup(func() { dhs.Close(); disp.Close() })
	cl := NewClient(dhs.URL)
	ctx := context.Background()

	fw := newFlakyWorker(t, Config{Workers: 1})
	if _, err := cl.JoinWorker(ctx, fw.proxy.URL); err != nil {
		t.Fatal(err)
	}
	fw.failing.Store(true)
	fw.healthzDown.Store(true)
	back := time.AfterFunc(300*time.Millisecond, func() {
		fw.failing.Store(false)
		fw.healthzDown.Store(false)
	})
	t.Cleanup(func() { back.Stop() })

	st, err := cl.Submit(ctx, quickSpec(56))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusDone {
		t.Fatalf("job held through the outage ended %s: %s", fin.Status, fin.Error)
	}
	if fs := disp.Stats().Fleet; fs.Retries > 1 || fs.Exhausted != 0 {
		t.Fatalf("retries=%d exhausted=%d, want at most 1/0", fs.Retries, fs.Exhausted)
	}
}

// The no-worker wait is counted from when the job starts waiting, not from
// dispatch start: a job that has already run longer than NoWorkerWait when
// its only worker drops out is still held for the whole wait, and finishes
// once the worker returns. The cut is triggered by the job's own progress
// and the worker's return by the wait beginning, so no step sleeps for a
// fixed time; the job only has to outlast the wait.
func TestFleetNoWorkerWaitAfterLongRun(t *testing.T) {
	const wait = 200 * time.Millisecond
	disp, err := New(Config{
		Fleet: true, NoWorkerWait: wait,
		DispatchRetry: RetryPolicy{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	dhs := httptest.NewServer(disp.Handler())
	t.Cleanup(func() { dhs.Close(); disp.Close() })
	cl := NewClient(dhs.URL)
	ctx := context.Background()

	// While down, the worker's proxy fails every request — dispatches,
	// /healthz polls, and the cancel of the abandoned job, so the worker
	// keeps running it and the redispatch coalesces onto that run.
	wsrv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	whs := httptest.NewServer(wsrv.Handler())
	u, _ := url.Parse(whs.URL)
	rp := httputil.NewSingleHostReverseProxy(u)
	var down atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "worker down", http.StatusBadGateway)
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { proxy.Close(); whs.Close(); wsrv.Close() })
	if _, err := cl.JoinWorker(ctx, proxy.URL); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	st, err := cl.Submit(ctx, longSpec(60))
	if err != nil {
		t.Fatal(err)
	}
	// Cut the worker at the first progress report after the job has been
	// dispatched for longer than the wait.
	waitFor(t, cl, st.ID, func(s *SubmitStatus) bool {
		if terminalStatus(s.Status) {
			t.Fatalf("job ended %s after %v, before it ran past the %v wait", s.Status, time.Since(start), wait)
		}
		return s.Done > 0 && time.Since(start) > wait+50*time.Millisecond
	}, "running past the wait")
	down.Store(true)
	proxy.CloseClientConnections() // severs the relay mid-job

	// Bring the worker back as soon as the job starts waiting for it.
	waitFor(t, cl, st.ID, func(s *SubmitStatus) bool {
		return terminalStatus(s.Status) || disp.Stats().Fleet.Starved > 0
	}, "waiting")
	down.Store(false)

	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusDone {
		t.Fatalf("job cut after running past NoWorkerWait ended %s: %s", fin.Status, fin.Error)
	}
	if fs := disp.Stats().Fleet; fs.Starved != 1 {
		t.Fatalf("starved = %d, want the one wait counted", fs.Starved)
	}
}

// JoinFleet's registration backoff: jitter stays within the ±50% envelope of
// the 1s→30s exponential, is deterministic per advertise URL, distinct
// across URLs, and the loop aborts promptly on context cancellation.
func TestJoinFleetBackoff(t *testing.T) {
	boA := newBackoff(time.Second, 30*time.Second, seedFromString("http://w-a:1"))
	boB := newBackoff(time.Second, 30*time.Second, seedFromString("http://w-b:1"))
	d := time.Second
	diverged := false
	for i := 0; i < 10; i++ {
		da, db := boA.next(), boB.next()
		if da < d/2 || da >= d/2+d {
			t.Fatalf("step %d: join delay %v outside [%v, %v)", i, da, d/2, d/2+d)
		}
		if da != db {
			diverged = true
		}
		if d < 30*time.Second {
			d *= 2
			if d > 30*time.Second {
				d = 30 * time.Second
			}
		}
	}
	if !diverged {
		t.Fatal("two workers drew identical join backoff streams (thundering herd)")
	}

	// Cancellation aborts a join loop stuck on an unreachable dispatcher.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := JoinFleet(ctx, "http://127.0.0.1:1", "http://127.0.0.1:2")
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled JoinFleet reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("JoinFleet did not abort on context cancellation")
	}
}

// Client-side retry: a retryable envelope (503 queue-full) is retried until
// the daemon recovers; a terminal envelope fails on the first attempt.
func TestClientWithRetry(t *testing.T) {
	var calls atomic.Int64
	mock := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			writeError(w, http.StatusServiceUnavailable, CodeQueueFull, "job queue full")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(SubmitStatus{ID: "job-1", Status: StatusQueued})
	}))
	defer mock.Close()

	cl := NewClient(mock.URL, WithRetry(RetryPolicy{Attempts: 5, Base: time.Millisecond, Max: 5 * time.Millisecond}))
	st, err := cl.Submit(context.Background(), quickSpec(56))
	if err != nil {
		t.Fatalf("retryable 503 not ridden out: %v", err)
	}
	if st.ID != "job-1" || calls.Load() != 3 {
		t.Fatalf("id=%s calls=%d, want job-1 after 3 calls", st.ID, calls.Load())
	}

	// Terminal rejection: exactly one attempt, no retries.
	var badCalls atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid job")
	}))
	defer bad.Close()
	cl2 := NewClient(bad.URL, WithRetry(RetryPolicy{Attempts: 5, Base: time.Millisecond}))
	if _, err := cl2.Submit(context.Background(), quickSpec(57)); err == nil {
		t.Fatal("bad request succeeded")
	}
	if badCalls.Load() != 1 {
		t.Fatalf("terminal error retried: %d calls", badCalls.Load())
	}

	// A daemon that never recovers gets exactly Attempts submissions.
	var downCalls atomic.Int64
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		downCalls.Add(1)
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "daemon draining")
	}))
	defer down.Close()
	cl3 := NewClient(down.URL, WithRetry(RetryPolicy{Attempts: 4, Base: time.Millisecond, Max: 2 * time.Millisecond}))
	if _, err := cl3.Submit(context.Background(), quickSpec(57)); err == nil {
		t.Fatal("submit to a draining daemon succeeded")
	}
	if downCalls.Load() != 4 {
		t.Fatalf("never-recovering daemon got %d submissions, want Attempts = 4", downCalls.Load())
	}

	// A ctx cancelled during a backoff ends the call within that step: the
	// shortest possible first delay is Base/2 = 30s.
	downCalls.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cl4 := NewClient(down.URL, WithRetry(RetryPolicy{Attempts: 4, Base: time.Minute, Max: time.Minute}))
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	if _, err := cl4.Submit(ctx, quickSpec(57)); err == nil {
		t.Fatal("submit cancelled mid-backoff succeeded")
	}
	if took := time.Since(start); took > 10*time.Second || downCalls.Load() != 1 {
		t.Fatalf("cancel mid-backoff: returned after %v and %d submissions, want within the 30s+ step and 1", took, downCalls.Load())
	}
}

// Wait's reconnect budget is Attempts in total: against a daemon answering
// 503 draining on every path, 4 tries cost 4 streams and one single-shot
// status GET before each of the 3 reconnects — 2A-1 = 7 requests — rather
// than a full retry loop nested inside every reconnect.
func TestWaitReconnectBudget(t *testing.T) {
	var streams, gets atomic.Int64
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			streams.Add(1)
		} else {
			gets.Add(1)
		}
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "daemon draining")
	}))
	defer down.Close()
	cl := NewClient(down.URL, WithRetry(RetryPolicy{Attempts: 4, Base: time.Millisecond, Max: 2 * time.Millisecond}))
	if _, err := cl.Wait(context.Background(), "job-1", nil); err == nil {
		t.Fatal("Wait on a draining daemon succeeded")
	}
	if s, g := streams.Load(), gets.Load(); s != 4 || g != 3 {
		t.Fatalf("Wait sent %d streams and %d status GETs (%d requests), want 4 and 3 (7)", s, g, s+g)
	}
}

// cutOnceTransport severs the body of the first event-stream response after
// a few bytes — the mid-flight failure Wait must reconnect through.
type cutOnceTransport struct {
	cut atomic.Bool
}

func (t *cutOnceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if strings.HasSuffix(req.URL.Path, "/events") && t.cut.CompareAndSwap(false, true) {
		resp.Body = &cutAfter{rc: resp.Body, left: 10}
	}
	return resp, nil
}

type cutAfter struct {
	rc   io.ReadCloser
	left int
}

func (b *cutAfter) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.rc.Read(p)
	b.left -= n
	return n, err
}

func (b *cutAfter) Close() error { return b.rc.Close() }

// Wait under a retry policy survives a severed SSE stream: it reconnects
// (or finds the job already settled) instead of surfacing the read error.
func TestWaitReconnectsAfterStreamCut(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	cl := NewClient(hs.URL,
		WithHTTPClient(&http.Client{Transport: &cutOnceTransport{}}),
		WithRetry(RetryPolicy{Attempts: 5, Base: time.Millisecond, Max: 10 * time.Millisecond}))
	ctx := context.Background()
	st, err := cl.Submit(ctx, quickSpec(58))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, st.ID, nil)
	if err != nil {
		t.Fatalf("Wait did not survive the stream cut: %v", err)
	}
	if fin.Status != StatusDone {
		t.Fatalf("job ended %s: %s", fin.Status, fin.Error)
	}

	// Without a retry policy the same cut is fatal — the old behaviour.
	cl2 := NewClient(hs.URL, WithHTTPClient(&http.Client{Transport: &cutOnceTransport{}}))
	st2, err := cl2.Submit(ctx, quickSpec(59))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Wait(ctx, st2.ID, nil); err == nil {
		t.Fatal("single-shot Wait rode through a cut stream")
	}
}
