package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// pollWorkers polls the dispatcher's worker list until cond is satisfied.
func pollWorkers(t *testing.T, cl *Client, what string, cond func([]WorkerInfo) bool) []WorkerInfo {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		ws, err := cl.Workers(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if cond(ws) {
			return ws
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; workers: %+v", what, ws)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Graceful drain: a draining worker finishes the job it is running but
// receives no new dispatches; undraining returns it to the rotation.
func TestWorkerDrainGraceful(t *testing.T) {
	_, cl, workers := startFleet(t, 2, Config{Workers: 1})
	ctx := context.Background()

	// Occupy the first worker (least-active tie-break picks registration
	// order, so the first dispatch lands on workers[0]).
	st1, err := cl.Submit(ctx, simSpec("cholesky", 12000, 51, 16))
	if err != nil {
		t.Fatal(err)
	}
	ws := pollWorkers(t, cl, "first dispatch to land", func(ws []WorkerInfo) bool {
		return ws[0].Active == 1
	})

	// Drain it mid-job.
	info, err := cl.DrainWorker(ctx, ws[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Draining {
		t.Fatalf("drain response %+v, want draining", info)
	}

	// New work goes elsewhere while the drained worker still runs job 1.
	st2, err := cl.Submit(ctx, simSpec("cholesky", 500, 52, 16))
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := cl.Wait(ctx, st2.ID, nil); err != nil || fin.Status != StatusDone {
		t.Fatalf("job on the remaining worker: %v %+v", err, fin)
	}

	// The running job finishes on the drained worker.
	fin1, err := cl.Wait(ctx, st1.ID, nil)
	if err != nil || fin1.Status != StatusDone {
		t.Fatalf("job on the drained worker: %v %+v", err, fin1)
	}
	if got := workers[0].srv.Stats().Submitted; got != 1 {
		t.Fatalf("drained worker received %d jobs, want only the pre-drain one", got)
	}
	if got := workers[1].srv.Stats().Submitted; got != 1 {
		t.Fatalf("second worker received %d jobs, want 1", got)
	}

	// With every worker draining, dispatch has nowhere to go and the job
	// fails with the fleet error (naming "worker", as the older tests pin).
	ws, err = cl.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DrainWorker(ctx, ws[1].ID); err != nil {
		t.Fatal(err)
	}
	st3, err := cl.Submit(ctx, simSpec("cholesky", 500, 53, 16))
	if err != nil {
		t.Fatal(err)
	}
	fin3, err := cl.Wait(ctx, st3.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin3.Status != StatusFailed {
		t.Fatalf("job with all workers draining ended %s", fin3.Status)
	}

	// Undrain: the fleet serves again.
	if _, err := cl.UndrainWorker(ctx, ws[0].ID); err != nil {
		t.Fatal(err)
	}
	st4, err := cl.Submit(ctx, simSpec("cholesky", 500, 54, 16))
	if err != nil {
		t.Fatal(err)
	}
	if fin4, err := cl.Wait(ctx, st4.ID, nil); err != nil || fin4.Status != StatusDone {
		t.Fatalf("job after undrain: %v %+v", err, fin4)
	}

	// Draining an unknown worker is a unified not_found.
	var apiErr *APIError
	if _, err := cl.DrainWorker(ctx, "worker-99"); !errors.As(err, &apiErr) || apiErr.Code != CodeNotFound {
		t.Fatalf("drain of unknown worker: %v, want not_found", err)
	}
}

// The heartbeat liveness state machine: a worker that beats is healthy, ages
// to suspect and then dead as beats stop, and revives on the next beat. A
// heartbeat also registers an unknown worker without probing it — the beat
// itself is the liveness proof.
func TestHeartbeatLivenessStateMachine(t *testing.T) {
	interval := 30 * time.Millisecond
	srv, err := New(Config{Fleet: true, HeartbeatInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	cl := NewClient(hs.URL)
	ctx := context.Background()

	// The advertised URL is never probed on heartbeat registration, so a
	// plain unreachable address works for driving the state machine.
	info, err := cl.Heartbeat(ctx, "http://127.0.0.1:1", "instance-w1")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != WorkerHealthy || !info.Heartbeat {
		t.Fatalf("heartbeat registration %+v, want healthy heartbeat worker", info)
	}

	// A dispatcher must reject a heartbeat claiming its own instance —
	// self-dispatch would deadlock.
	var apiErr *APIError
	if _, err := cl.Heartbeat(ctx, "http://127.0.0.1:1", srv.Instance()); !errors.As(err, &apiErr) || apiErr.Code != CodeBadRequest {
		t.Fatalf("self-heartbeat: %v, want bad_request", err)
	}

	// Stop beating: healthy → suspect (~2.5 intervals) → dead (~5).
	pollWorkers(t, cl, "suspect", func(ws []WorkerInfo) bool {
		return len(ws) == 1 && ws[0].State == WorkerSuspect && !ws[0].Healthy
	})
	pollWorkers(t, cl, "dead", func(ws []WorkerInfo) bool {
		return ws[0].State == WorkerDead
	})

	// One beat revives it.
	info, err = cl.Heartbeat(ctx, "http://127.0.0.1:1", "instance-w1")
	if err != nil {
		t.Fatal(err)
	}
	if info.State != WorkerHealthy || info.Revived != 1 {
		t.Fatalf("post-revival %+v, want healthy with revived=1", info)
	}
	// And re-registration was idempotent throughout: still one worker.
	if ws, _ := cl.Workers(ctx); len(ws) != 1 {
		t.Fatalf("%d workers after repeated heartbeats, want 1", len(ws))
	}
}

// Dispatcher restart recovery: when the dispatcher process is replaced by a
// fresh one that knows no workers, the workers' periodic heartbeats re-learn
// the whole fleet within one heartbeat interval — no operator action, and
// jobs dispatch end to end again.
func TestDispatcherRestartRelearnsFleet(t *testing.T) {
	interval := 25 * time.Millisecond

	// The dispatcher sits behind a swappable handler, so "restart" replaces
	// the daemon while its URL — the one workers heartbeat to — survives.
	var mu sync.Mutex
	var handler http.Handler
	dhs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := handler
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(dhs.Close)

	disp1, err := New(Config{Fleet: true, HeartbeatInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp1.Close)
	mu.Lock()
	handler = disp1.Handler()
	mu.Unlock()

	// One real worker daemon, heartbeating.
	wsrv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	whs := httptest.NewServer(wsrv.Handler())
	t.Cleanup(func() { whs.Close(); wsrv.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go HeartbeatLoop(ctx, dhs.URL, whs.URL, wsrv.Instance(), interval)

	cl := NewClient(dhs.URL)
	pollWorkers(t, cl, "initial registration", func(ws []WorkerInfo) bool {
		return len(ws) == 1 && ws[0].State == WorkerHealthy
	})

	// "Restart" the dispatcher: a brand-new daemon with an empty worker set.
	disp2, err := New(Config{Fleet: true, HeartbeatInterval: interval})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp2.Close)
	mu.Lock()
	handler = disp2.Handler()
	mu.Unlock()

	start := time.Now()
	pollWorkers(t, cl, "re-learned worker", func(ws []WorkerInfo) bool {
		return len(ws) == 1 && ws[0].State == WorkerHealthy && ws[0].Heartbeat
	})
	// Heartbeats are periodic, so re-learning takes at most about one
	// interval; allow generous scheduling slack while still proving it was
	// the beat (not an operator) that re-registered.
	if elapsed := time.Since(start); elapsed > 20*interval {
		t.Fatalf("re-learning took %v, want about one %v interval", elapsed, interval)
	}

	// And the re-learned fleet dispatches end to end.
	st, err := cl.Submit(context.Background(), simSpec("cholesky", 500, 61, 16))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(context.Background(), st.ID, nil)
	if err != nil || fin.Status != StatusDone {
		t.Fatalf("post-restart job: %v %+v", err, fin)
	}
	if wsrv.Stats().Submitted != 1 {
		t.Fatalf("worker ran %d jobs, want 1", wsrv.Stats().Submitted)
	}
}

// Fleet registration endpoints sit behind the same bearer-token auth as the
// job API: joining an authenticated dispatcher requires a token, and the
// dispatcher presents its peer token when submitting to authenticated
// workers — full token plumbing end to end.
func TestFleetAuthEndToEnd(t *testing.T) {
	ops := &AuthConfig{Tenants: []TenantConfig{{Name: "ops", Token: "tok-ops"}}}
	peers := &AuthConfig{Tenants: []TenantConfig{{Name: "fleet", Token: "tok-fleet"}}}

	disp, err := New(Config{Fleet: true, Auth: ops, PeerToken: "tok-fleet"})
	if err != nil {
		t.Fatal(err)
	}
	dhs := httptest.NewServer(disp.Handler())
	t.Cleanup(func() { dhs.Close(); disp.Close() })

	wsrv, err := New(Config{Workers: 1, Auth: peers})
	if err != nil {
		t.Fatal(err)
	}
	whs := httptest.NewServer(wsrv.Handler())
	t.Cleanup(func() { whs.Close(); wsrv.Close() })

	ctx := context.Background()
	var apiErr *APIError
	if _, err := NewClient(dhs.URL).JoinWorker(ctx, whs.URL); !errors.As(err, &apiErr) || apiErr.Code != CodeUnauthorized {
		t.Fatalf("tokenless join: %v, want unauthorized", err)
	}

	cl := NewClient(dhs.URL, WithToken("tok-ops"))
	if _, err := cl.JoinWorker(ctx, whs.URL); err != nil {
		t.Fatalf("authenticated join: %v", err)
	}

	// The dispatcher authenticates to the worker with its peer token.
	st, err := cl.Submit(ctx, simSpec("cholesky", 500, 71, 16))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cl.Wait(ctx, st.ID, nil)
	if err != nil || fin.Status != StatusDone {
		t.Fatalf("fleet job through authenticated worker: %v %+v", err, fin)
	}
	if fin.Tenant != "ops" {
		t.Fatalf("job attributed to %q, want ops", fin.Tenant)
	}
}

// A join-only worker (one that never heartbeats) follows the same health
// rule as a heartbeating one: the dispatcher polls its /healthz once it has
// gone an interval unheard, so an idle reachable worker stays healthy, one
// whose /healthz fails ages to suspect and then dead, and the first answer
// after that revives it.
func TestJoinOnlyWorkerLiveness(t *testing.T) {
	interval := 50 * time.Millisecond
	disp, err := New(Config{Fleet: true, HeartbeatInterval: interval})
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

	for end := time.Now().Add(10 * interval); time.Now().Before(end); time.Sleep(interval / 5) {
		ws, err := cl.Workers(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ws[0].State != WorkerHealthy {
			t.Fatalf("idle, reachable join-only worker reads %+v, want healthy", ws[0])
		}
	}

	fw.healthzDown.Store(true)
	pollWorkers(t, cl, "suspect", func(ws []WorkerInfo) bool { return ws[0].State == WorkerSuspect })
	pollWorkers(t, cl, "dead", func(ws []WorkerInfo) bool { return ws[0].State == WorkerDead })

	fw.healthzDown.Store(false)
	ws := pollWorkers(t, cl, "revival", func(ws []WorkerInfo) bool { return ws[0].State == WorkerHealthy })
	if ws[0].Revived != 1 || ws[0].Heartbeat {
		t.Fatalf("revived join-only worker %+v, want revived=1 and no heartbeat", ws[0])
	}
}
