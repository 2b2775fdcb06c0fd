package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// waitFor polls a job until pred holds (returning its final status) or the
// deadline passes.
func waitFor(t *testing.T, cl *Client, id string, pred func(*SubmitStatus) bool, what string) *SubmitStatus {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.Job(ctx, id)
		if err != nil {
			t.Fatalf("polling %s: %v", id, err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never became %s (still %s)", id, what, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// longSpec is a sim job big enough to reliably straddle a cancellation
// (tens of thousands of decode intervals of wall time).
func longSpec(seed int64) *JobSpec { return simSpec("cholesky", 60000, seed, 8) }

// quickSpec is a sim job that finishes fast — the probe used to show a
// worker-pool slot was freed.
func quickSpec(seed int64) *JobSpec { return simSpec("fft", 300, seed, 8) }

// assertSlotFree proves the daemon's single worker slot is usable by running
// a fresh quick job to completion.
func assertSlotFree(t *testing.T, cl *Client, seed int64) {
	t.Helper()
	st, err := cl.Submit(context.Background(), quickSpec(seed))
	if err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	if !st.Cached {
		st = waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	}
	if st.Status != StatusDone {
		t.Fatalf("probe job ended %s: %s — worker slot not freed?", st.Status, st.Error)
	}
}

// The cancellation lifecycle, table-driven: every scenario asserts the
// status transitions it induces, that a second DELETE is idempotent (same
// terminal status, no error), and that the worker-pool slot the job held (if
// any) is released.
func TestCancelLifecycle(t *testing.T) {
	runCancelLifecycle(t, func(t *testing.T) (*Server, *Client) {
		return startDaemon(t, Config{Workers: 1})
	})
}

// The same lifecycle on a dispatcher that runs one dispatch at a time
// (QueueDepth 1) over one joined single-worker daemon: a queued cancel there
// takes the same run and settle path as on a plain daemon.
func TestCancelLifecycleOnDispatcher(t *testing.T) {
	runCancelLifecycle(t, func(t *testing.T) (*Server, *Client) {
		worker, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		whs := httptest.NewServer(worker.Handler())
		t.Cleanup(func() {
			whs.Close()
			worker.Close()
		})
		disp, cl := startDaemon(t, Config{Fleet: true, QueueDepth: 1, NoWorkerWait: -1})
		if _, err := cl.JoinWorker(context.Background(), whs.URL); err != nil {
			t.Fatal(err)
		}
		return disp, cl
	})
}

// runCancelLifecycle runs the cancellation table against fresh daemons from
// start, one per scenario.
func runCancelLifecycle(t *testing.T, start func(t *testing.T) (*Server, *Client)) {
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(t *testing.T, srv *Server, cl *Client, seed int64)
	}{
		{"before queue (unknown job)", func(t *testing.T, srv *Server, cl *Client, seed int64) {
			// Cancelling a job that was never submitted is a 404, not a
			// silent success.
			if _, err := cl.Cancel(ctx, "job-999"); err == nil || !strings.Contains(err.Error(), "no such job") {
				t.Fatalf("cancel of unknown job: %v, want 'no such job'", err)
			}
		}},
		{"while queued", func(t *testing.T, srv *Server, cl *Client, seed int64) {
			blocker, err := cl.Submit(ctx, longSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			queued, err := cl.Submit(ctx, longSpec(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			if queued.Status != StatusQueued {
				t.Fatalf("second job on a 1-worker daemon is %s, want queued", queued.Status)
			}
			// Cancel the queued job: it must flip to cancelled immediately,
			// without waiting for the worker to reach it.
			st, err := cl.Cancel(ctx, queued.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st.Status != StatusCancelled {
				t.Fatalf("queued job is %s after DELETE, want cancelled", st.Status)
			}
			// Its key's inflight slot is released: an identical submission
			// must start fresh, not coalesce onto the cancelled execution.
			again, err := cl.Submit(ctx, longSpec(seed+1))
			if err != nil {
				t.Fatal(err)
			}
			if again.Coalesced || again.Cached {
				t.Fatalf("resubmission after queued-cancel: coalesced=%v cached=%v, want fresh", again.Coalesced, again.Cached)
			}
			// Idempotent double-DELETE, and cleanup of the rest.
			st2, err := cl.Cancel(ctx, queued.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st2.Status != StatusCancelled {
				t.Fatalf("double DELETE: %s, want cancelled", st2.Status)
			}
			for _, id := range []string{again.ID, blocker.ID} {
				if _, err := cl.Cancel(ctx, id); err != nil {
					t.Fatal(err)
				}
				waitFor(t, cl, id, func(s *SubmitStatus) bool { return s.Status == StatusCancelled }, "cancelled")
			}
		}},
		{"mid-run", func(t *testing.T, srv *Server, cl *Client, seed int64) {
			st, err := cl.Submit(ctx, longSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			// Wait until the engine has demonstrably started retiring
			// tasks, so the cancel lands mid-simulation.
			waitFor(t, cl, st.ID, func(s *SubmitStatus) bool {
				return s.Status == StatusRunning && s.Done > 0
			}, "running with progress")
			cst, err := cl.Cancel(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cst.Status != StatusRunning && cst.Status != StatusCancelled {
				t.Fatalf("job is %s right after mid-run DELETE", cst.Status)
			}
			fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
			if fin.Status != StatusCancelled {
				t.Fatalf("mid-run cancel ended %s: %s", fin.Status, fin.Error)
			}
			// The result endpoint must refuse, naming the cancellation.
			if _, err := cl.Result(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "cancelled") {
				t.Fatalf("result of cancelled job: %v, want cancelled conflict", err)
			}
			// Double-DELETE stays cancelled.
			cst2, err := cl.Cancel(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cst2.Status != StatusCancelled {
				t.Fatalf("double DELETE after mid-run cancel: %s", cst2.Status)
			}
		}},
		{"after completion", func(t *testing.T, srv *Server, cl *Client, seed int64) {
			st, err := cl.Submit(ctx, quickSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
			if fin.Status != StatusDone {
				t.Fatalf("job ended %s: %s", fin.Status, fin.Error)
			}
			// DELETE after completion is a no-op: status stays done and
			// the result stays fetchable — including on a repeat DELETE.
			for i := 0; i < 2; i++ {
				cst, err := cl.Cancel(ctx, st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if cst.Status != StatusDone {
					t.Fatalf("DELETE %d flipped a done job to %s", i+1, cst.Status)
				}
			}
			if _, err := cl.Result(ctx, st.ID); err != nil {
				t.Fatalf("result gone after DELETE of done job: %v", err)
			}
			// A cached submission (terminal at birth, no execution
			// context) tolerates DELETE the same way.
			hit, err := cl.Submit(ctx, quickSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Cached {
				t.Fatalf("repeat submission not served from cache")
			}
			cst, err := cl.Cancel(ctx, hit.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cst.Status != StatusDone {
				t.Fatalf("DELETE flipped a cached job to %s", cst.Status)
			}
		}},
	}

	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, cl := start(t)
			tc.run(t, srv, cl, int64(1000*(i+1)))
			// Whatever the scenario did, the single worker slot must be
			// usable afterwards.
			assertSlotFree(t, cl, int64(1000*(i+1))+500)
			// And the counters must conserve: every settled submission is
			// exactly one of completed, failed, cancelled, coalesced, a
			// cache hit, or a disk hit.
			st := srv.Stats()
			if got := st.Completed + st.Failed + st.Cancelled + st.Coalesced + st.CacheHits + st.DiskHits; got != st.Submitted {
				t.Fatalf("conservation violated: completed(%d)+failed(%d)+cancelled(%d)+coalesced(%d)+cache(%d)+disk(%d) = %d, want %d submissions",
					st.Completed, st.Failed, st.Cancelled, st.Coalesced, st.CacheHits, st.DiskHits, got, st.Submitted)
			}
			if st.Inflight != 0 {
				t.Fatalf("%d executions still inflight after drain", st.Inflight)
			}
		})
	}
}

// A job cancelled while queued leaves its scheduler queue at once: it stops
// counting against QueueDepth and in the queue stats, and no pick ever
// dispatches it.
func TestCancelQueuedLeavesSchedulerQueue(t *testing.T) {
	srv, cl := startDaemon(t, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	blocker, err := cl.Submit(ctx, longSpec(4100))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, cl, blocker.ID, func(s *SubmitStatus) bool { return s.Status == StatusRunning }, "running")
	queued, err := cl.Submit(ctx, longSpec(4101))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Sched.Queued != 0 || st.Tenants[0].QueuedInteractive != 0 {
		t.Fatalf("after cancelling the only queued job: sched.queued=%d, tenant queued_interactive=%d, want 0",
			st.Sched.Queued, st.Tenants[0].QueuedInteractive)
	}
	// The freed queue slot admits the next submission.
	next, err := cl.Submit(ctx, longSpec(4102))
	if err != nil {
		t.Fatalf("submission after the queued cancel: %v", err)
	}
	for _, id := range []string{next.ID, blocker.ID} {
		if _, err := cl.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		waitFor(t, cl, id, func(s *SubmitStatus) bool { return s.Status == StatusCancelled }, "cancelled")
	}
	if d := srv.Stats().Sched.Dispatched; d != 1 {
		t.Fatalf("scheduler dispatched %d jobs, want 1 (the blocker): a cancelled queued job was picked", d)
	}
}

// A cancelled sweep job stops between its constituent simulations and frees
// its slot (sweeps cancel at point granularity rather than engine-poll
// granularity).
func TestCancelSweepJob(t *testing.T) {
	_, cl := startDaemon(t, Config{Workers: 1})
	ctx := context.Background()
	st, err := cl.Submit(ctx, &JobSpec{Kind: KindSweep, Sweep: &SweepSpec{Experiment: "fig16", Seed: i64p(777)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return terminalStatus(s.Status) }, "terminal")
	if fin.Status != StatusCancelled {
		t.Fatalf("sweep cancel ended %s: %s", fin.Status, fin.Error)
	}
	assertSlotFree(t, cl, 778)
}

// SSE watchers of a cancelled job see the cancelled status transition and a
// terminal "cancelled" event, then the stream ends.
func TestCancelTerminatesEventStream(t *testing.T) {
	_, cl := startDaemon(t, Config{Workers: 1})
	ctx := context.Background()
	st, err := cl.Submit(ctx, longSpec(31337))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, cl, st.ID, func(s *SubmitStatus) bool { return s.Status == StatusRunning && s.Done > 0 }, "running")

	done := make(chan error, 1)
	var sawCancelled bool
	go func() {
		done <- cl.Events(ctx, st.ID, func(ev Event) error {
			if ev.Type == "cancelled" {
				sawCancelled = true
			}
			return nil
		})
	}()
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("event stream: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("event stream did not terminate after cancel")
	}
	if !sawCancelled {
		t.Fatal("no terminal cancelled event on the stream")
	}
}
