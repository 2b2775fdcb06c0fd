package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Fleet mode: the dispatcher side of a multi-node tssd deployment.
//
// A dispatcher is a Server with Config.Fleet set. It exposes the same job
// API as a plain daemon — so service.Client, tssim -remote, and tsbench
// -remote work against it unchanged — but instead of simulating locally it
// forwards each primary job to a registered remote worker (itself a plain
// tssd daemon) over the existing HTTP/JSON + SSE protocol, with JobSpec and
// its content-address Key as the wire unit. Everything content-addressed
// composes across nodes for free:
//
//   - identical submissions coalesce at the dispatcher exactly as they do on
//     one daemon (one remote execution serves all of them), and additionally
//     coalesce on the worker if two dispatchers race;
//   - the dispatcher's own result cache answers repeat submissions without
//     touching a worker, so the fleet shares one result space;
//   - because runs are deterministic, a job retried on a different worker
//     after a mid-job failure produces byte-identical results, which is what
//     makes transparent retry sound.
//
// Progress and log events relay from the worker's SSE stream into the
// dispatcher's execution state, so a client watching the dispatcher sees the
// same stream it would see watching the worker. Cancellation propagates the
// other way: cancelling the dispatcher job cancels its context, which aborts
// the relay and best-effort DELETEs the job on the worker.

// remoteJobError marks a deterministic job-level failure reported by a
// worker: the job itself is bad (it would fail identically anywhere), so the
// dispatcher must not retry it on another node.
type remoteJobError struct{ msg string }

func (e remoteJobError) Error() string { return e.msg }

// fleet is the dispatcher state behind a Server with Config.Fleet set.
type fleet struct {
	s    *Server
	stop chan struct{} // ends the liveness loop

	mu        sync.Mutex
	workers   []*workerNode // registration order
	nextID    uint64
	retries   uint64 // worker-level failures retried (on this or another node)
	exhausted uint64 // jobs failed after burning their whole retry budget
	starved   uint64 // waits entered because zero workers were dispatchable
}

func newFleet(s *Server) *fleet {
	f := &fleet{s: s, stop: make(chan struct{})}
	go f.livenessLoop()
	return f
}

// livenessLoop polls, once per heartbeat interval, the /healthz of every
// worker not heard from since the previous sweep: a join-only worker at every
// sweep, a heartbeating one only when its beat is late. An answer is evidence
// of life dated at the sweep's start; silence grows into suspect, then dead.
// No sweep waits for its polls and each may take two intervals, so a
// blackholed worker delays no other's poll and an answer within 1.5
// intervals keeps a worker from reading suspect.
func (f *fleet) livenessLoop() {
	interval := f.s.cfg.HeartbeatInterval
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t := time.NewTicker(interval)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
		}
		now := time.Now()
		f.mu.Lock()
		for _, w := range f.workers {
			w.mu.Lock()
			quiet := !w.seen.After(last)
			w.mu.Unlock()
			if quiet {
				go w.poll(ctx, 2*interval, now)
			}
		}
		f.mu.Unlock()
		last = now
	}
}

// execute runs one job's remote attempt loop: pick a worker, relay, and —
// when a worker fails mid-job — back off (Config.DispatchRetry, its jitter
// seeded by the job key) and retry, preferring a different node, until the
// job finishes, is cancelled, the retry budget is exhausted, or the deadline
// passes. It keeps its own loop rather than RetryPolicy.do because a wait
// for a worker spends no budget. Each worker's derived health decides
// whether it is dispatchable, so a fleet whose nodes all hiccuped once still
// serves jobs; a suspect worker, the last resort, gets the job only after it
// answers /healthz. When zero workers are dispatchable the job degrades
// gracefully — it waits (bounded by Config.NoWorkerWait from when the wait
// begins, and by ctx) for a worker to register, revive, or exit cooldown
// instead of failing instantly. It returns the result instead of settling
// the job; produce is its one caller, for picked jobs and sweep points
// alike. Points do not hold run slots: a sweep occupies one slot while its
// points fan out bounded by the sweep's own pool width.
func (f *fleet) execute(ctx context.Context, j *job) ([]byte, error) {
	e := j.exec
	cfg := f.s.cfg
	retries := cfg.DispatchRetry.Attempts - 1
	bo := cfg.DispatchRetry.delays(j.key)
	var lastErr error
	lastFailed := ""
	failures := 0
	var waitDeadline time.Time // zero while not waiting
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dispatch cancelled: %w", err)
		}
		w, h := f.pick(lastFailed, time.Now())
		if w != nil && h == healthSuspect {
			// An unreachable last resort costs the job a wait, not budget.
			if !w.poll(ctx, 2*time.Second, time.Now()) {
				w = nil
			}
		}
		if w == nil {
			// Graceful degradation: zero dispatchable workers right now is
			// not a job failure yet — wait for the fleet to come back.
			now := time.Now()
			starting := waitDeadline.IsZero()
			if starting {
				waitDeadline = now.Add(cfg.NoWorkerWait)
			}
			if !now.Before(waitDeadline) {
				if lastErr == nil {
					lastErr = errors.New("no dispatchable workers registered")
				}
				return nil, fmt.Errorf("fleet: no dispatchable worker within %s: %w", cfg.NoWorkerWait, lastErr)
			}
			if starting {
				f.mu.Lock()
				f.starved++
				f.mu.Unlock()
				f.s.appendLog(e, "[dispatcher] no dispatchable workers; holding the job until one returns")
			}
			sleepCtx(ctx, cfg.DispatchRetry.Base)
			continue
		}
		waitDeadline = time.Time{}
		result, err := f.runOn(ctx, w, j)
		var jobErr remoteJobError
		switch {
		case err == nil:
			w.noteSuccess(time.Now())
			return result, nil
		case ctx.Err() != nil:
			// The caller classifies this as cancelled (or past deadline) via
			// the context. The aborted attempt says nothing about the
			// worker's health; release a half-open probe slot if we held it.
			w.releaseHalfOpen()
			return nil, err
		case errors.As(err, &jobErr):
			// Deterministic failure: retrying elsewhere reproduces it. The
			// worker did its part correctly — this is a success for its
			// breaker.
			w.noteSuccess(time.Now())
			return nil, err
		default:
			// Worker-level failure (connection refused, SSE cut mid-job,
			// 5xx): feed the node's breaker, spend one unit of retry budget,
			// back off, and go around — preferring a different node.
			lastErr = fmt.Errorf("worker %s (%s): %w", w.id, w.url, err)
			lastFailed = w.id
			w.noteFailure(time.Now())
			failures++
			if failures > retries {
				f.mu.Lock()
				f.exhausted++
				f.mu.Unlock()
				return nil, fmt.Errorf("fleet: retry budget exhausted after %d worker failures: %w",
					failures, lastErr)
			}
			f.mu.Lock()
			f.retries++
			f.mu.Unlock()
			f.s.appendLog(e, fmt.Sprintf("[dispatcher] worker %s failed (%v); retry %d/%d",
				w.id, err, failures, retries))
			sleepCtx(ctx, bo.next())
		}
	}
}

// shardWidth picks the point fan-out for a sharded sweep: wide enough to
// keep every healthy worker busy (2x, so relay latency overlaps simulation)
// but bounded. SweepSpec.Workers is excluded from the sweep key and the
// sweep engine is width-independent, so the dispatcher is free to choose.
func (f *fleet) shardWidth() int {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, w := range f.workers {
		w.mu.Lock()
		if !w.draining && w.healthAt(now) == healthOK {
			n++
		}
		w.mu.Unlock()
	}
	return min(max(2*n, 1), 64)
}

// runOn executes the job on one worker: submit, relay the SSE stream into
// the dispatcher-side execution, and fetch the canonical result bytes. Any
// error that is not a remoteJobError is a worker-level failure the caller
// may retry elsewhere; a cancelled dispatcher context additionally
// best-effort cancels the job on the worker before returning. ctx is the
// execution context, already bounded by the per-job deadline.
func (f *fleet) runOn(ctx context.Context, w *workerNode, j *job) ([]byte, error) {
	e := j.exec
	w.begin()
	defer w.end()

	st, err := w.cl.SubmitVia(ctx, &j.spec, append(append([]string(nil), j.via...), f.s.instance))
	var ae *APIError
	if errors.As(err, &ae) && ae.Code == CodeDispatchLoop {
		// The fleet topology routes this job in a cycle, which every
		// worker would report the same way: the job fails, not the worker.
		return nil, remoteJobError{ae.Error()}
	}
	if err != nil {
		return nil, err
	}
	remoteID := st.ID
	// Whether the dispatch was cancelled or the relay broke, the worker —
	// if it is still alive — must not keep burning a pool slot on a job
	// nobody is waiting for: every early exit best-effort cancels the
	// remote job on a fresh short-lived context (ours may be dead, and a
	// severed relay connection says nothing about fresh connections).
	abandon := func() {
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		w.cl.Cancel(cctx, remoteID)
	}
	if st.Key != j.key {
		// A worker on different simulator semantics would silently serve
		// results from a different content address; refuse loudly (and
		// stop the run the worker just started for us).
		abandon()
		return nil, remoteJobError{fmt.Sprintf(
			"worker %s computed key %.12s… for key %.12s… (mixed simulator versions in the fleet?)",
			w.id, st.Key, j.key)}
	}
	if !terminalStatus(st.Status) {
		st, err = w.cl.Wait(ctx, remoteID, func(ev Event) { f.relay(e, ev) })
		if err != nil {
			abandon()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
	}
	switch st.Status {
	case StatusDone:
		b, err := w.cl.Result(ctx, remoteID)
		if err != nil {
			return nil, err
		}
		return b, nil
	case StatusFailed:
		return nil, remoteJobError{st.Error}
	case StatusCancelled:
		// Nobody but this dispatcher should cancel a worker job it owns;
		// treat an externally cancelled remote job as a worker fault and
		// retry elsewhere.
		return nil, fmt.Errorf("job cancelled on the worker")
	}
	abandon()
	return nil, fmt.Errorf("worker job ended in unexpected state %q", st.Status)
}

// relay publishes one worker SSE event into the dispatcher-side execution,
// so dispatcher watchers see the worker's progress and log stream live.
// Status/result/error events are not relayed: terminal state is published
// exactly once by settle, from the fetched canonical result.
func (f *fleet) relay(e *execution, ev Event) {
	switch ev.Type {
	case "progress":
		var p struct{ Done, Total uint64 }
		if json.Unmarshal(ev.Data, &p) == nil {
			e.set(func() { e.done, e.total = p.Done, p.Total })
		}
	case "log":
		var l struct{ Line string }
		if json.Unmarshal(ev.Data, &l) == nil {
			f.s.appendLog(e, l.Line)
		}
	}
}

// pick chooses the worker for the next attempt in one pass over the fleet,
// ranking candidates by health at now (healthy, then half-open-ready, then
// suspect as a last resort), then by not being `avoid` — the worker that
// just failed this job — then by fewest active dispatches, then by
// registration order. Draining, dead and tripped workers are never picked;
// that is the whole drain, liveness and breaker contract. A half-open-ready
// winner claims its worker's one probe slot, whose outcome (noteSuccess,
// noteFailure, releaseHalfOpen) frees it again. `avoid` is only a
// preference: a one-worker fleet still retries on the worker that just
// failed. pick returns the winner with its health, or nil.
func (f *fleet) pick(avoid string, now time.Time) (*workerNode, health) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var best *workerNode
	var bestH health
	var bestAvoided bool
	var bestActive int
	for _, w := range f.workers {
		w.mu.Lock()
		h, draining, active := w.healthAt(now), w.draining, w.active
		w.mu.Unlock()
		if draining || h > healthSuspect {
			continue
		}
		avoided := w.id == avoid
		if best == nil || h < bestH || h == bestH &&
			(bestAvoided && !avoided || avoided == bestAvoided && active < bestActive) {
			best, bestH, bestAvoided, bestActive = w, h, avoided, active
		}
	}
	if best != nil && bestH == healthHalfOpen {
		// Another job on the worker may have settled since the ranking: claim
		// the slot only if it is still half-open-ready (f.mu bars other picks).
		best.mu.Lock()
		bestH = best.healthAt(now)
		best.probing = bestH == healthHalfOpen
		best.mu.Unlock()
		if bestH > healthSuspect {
			return nil, bestH
		}
	}
	return best, bestH
}

// FleetStats is the dispatcher section of GET /stats.
type FleetStats struct {
	// Retries counts worker-level failures that were retried (each burns one
	// unit of a job's DispatchRetry budget); Exhausted counts jobs failed
	// after burning the whole budget; Starved counts waits entered because
	// zero workers were dispatchable. Conservation: every worker-level
	// failure is either one of the Retries or the last straw of an
	// Exhausted job, so sum(worker.Failures) == Retries + Exhausted once
	// the fleet drains.
	Retries   uint64 `json:"retries"`
	Exhausted uint64 `json:"exhausted"`
	Starved   uint64 `json:"starved"`
	// Workers lists every registered worker with its dispatch counters.
	Workers []WorkerInfo `json:"workers"`
}

func (f *fleet) stats() FleetStats {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FleetStats{
		Retries: f.retries, Exhausted: f.exhausted, Starved: f.starved,
		Workers: make([]WorkerInfo, 0, len(f.workers)),
	}
	for _, w := range f.workers {
		st.Workers = append(st.Workers, w.info(now))
	}
	return st
}
