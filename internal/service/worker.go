package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"tasksuperscalar/internal/faults"
)

// The worker side of fleet mode: registration and lifecycle plumbing between
// a plain tssd daemon (the worker) and a dispatcher (a Server with
// Config.Fleet set). A worker needs no special build — any tssd daemon whose
// URL the dispatcher can reach is a valid worker.
//
// A worker registers by joining (POST /v1/workers) or by heartbeating
// (POST /v1/workers/heartbeat); cmd/tssd -join does the first and then, by
// default, the second every -heartbeat interval. A heartbeat carrying an
// unknown URL registers the worker on the spot, so a restarted dispatcher
// re-learns its whole fleet within one heartbeat interval with no operator
// action.
//
// The dispatcher keeps one record per worker and derives the worker's
// health from it whenever it reads it (workerNode.healthAt); nothing ages in
// the background. Every kind of evidence of life — a join, a heartbeat, a
// served dispatch, or a /healthz poll the dispatcher makes of a worker that
// has gone quiet (fleet.livenessLoop) — refreshes the same record, so
// join-only and heartbeating workers follow one rule.
//
// Any worker can be drained (POST /v1/workers/{id}/drain): it stops
// receiving new dispatches while jobs already relayed to it finish, the
// graceful way to take a node out for maintenance. DELETE .../drain returns
// it to the rotation.

// Worker liveness states (WorkerInfo.State).
const (
	WorkerHealthy = "healthy"
	WorkerSuspect = "suspect" // silent ~2.5 intervals, or last heard of failing a dispatch; a last resort, once it answers /healthz
	WorkerDead    = "dead"    // silent ~5 intervals; never picked until heard from again
)

// Circuit-breaker states (WorkerInfo.Breaker). Liveness asks "is the
// process up?"; the breaker asks "do dispatches to it succeed?" (a node can
// answer /healthz all day while its pool is wedged). Closed admits
// dispatches; tripped (Config.BreakerThreshold consecutive failures) admits
// none until Config.BreakerCooldown has passed since the latest failure;
// then the next pick sends exactly one half-open probe job, whose outcome
// closes or re-trips the breaker.
const (
	BreakerClosed   = "closed"
	BreakerTripped  = "tripped"
	BreakerHalfOpen = "half-open"
)

// WorkerInfo is the wire form of one registered fleet worker
// (POST/GET /v1/workers and the fleet section of /stats).
type WorkerInfo struct {
	// ID names the worker for DELETE /v1/workers/{id} and the drain
	// endpoints.
	ID string `json:"id"`
	// URL is the worker daemon's base URL as registered.
	URL string `json:"url"`
	// State is the liveness state: healthy, suspect, or dead.
	State string `json:"state"`
	// Healthy reports State == healthy (kept for older clients).
	Healthy bool `json:"healthy"`
	// Draining reports that the worker receives no new dispatches while its
	// running jobs finish.
	Draining bool `json:"draining,omitempty"`
	// Heartbeat reports that the worker has heartbeated at least once. It
	// is informational: health follows the same rule either way.
	Heartbeat bool `json:"heartbeat,omitempty"`
	// Active is the number of jobs currently dispatched to the worker.
	Active int `json:"active"`
	// Dispatched and Failures count dispatch attempts and worker-level
	// failures over the worker's registration lifetime; Revived counts
	// evidence of life that arrived while the worker was dead.
	Dispatched uint64 `json:"dispatched"`
	Failures   uint64 `json:"failures"`
	Revived    uint64 `json:"revived,omitempty"`
	// Breaker is the circuit-breaker state (closed, tripped, half-open);
	// BreakerTrips counts trips over the registration lifetime.
	Breaker      string `json:"breaker"`
	BreakerTrips uint64 `json:"breaker_trips,omitempty"`
}

// workerNode is the dispatcher's record of one registered worker. Health is
// never stored: healthAt derives it from the record at the moment of
// reading.
type workerNode struct {
	id  string
	url string
	cl  *Client
	cfg *Config // the dispatcher's: HeartbeatInterval and the breaker knobs

	mu       sync.Mutex
	seen     time.Time // last join, heartbeat, served dispatch, or successful /healthz poll
	fails    int       // consecutive worker-level dispatch failures
	failedAt time.Time // when the latest of them happened
	probing  bool      // the one half-open probe job is out
	draining bool
	beaten   bool // has heartbeated at least once (WorkerInfo.Heartbeat)

	active     int
	dispatched uint64
	failures   uint64
	revived    uint64
	trips      uint64
}

// health is a worker's state as pick sees it, in pick's order of
// preference: the first three are dispatchable, the last two are skipped.
type health uint8

const (
	healthOK       health = iota
	healthHalfOpen        // tripped with the cooldown over: the next pick claims the probe slot
	healthSuspect         // see suspect; a last resort
	healthTripped         // cooling down, or its half-open probe job is out
	healthDead            // silent for 5 heartbeat intervals
)

// healthAt derives the worker's health at now from its record (w.mu held).
// Silence and the cooldown are measured when the record is read, which is
// what lets liveness need no background ageing.
func (w *workerNode) healthAt(now time.Time) health {
	silent, c := now.Sub(w.seen), w.cfg
	switch {
	case silent >= 5*c.HeartbeatInterval:
		return healthDead
	case w.fails >= c.BreakerThreshold && (w.probing || now.Sub(w.failedAt) < c.BreakerCooldown):
		return healthTripped
	case w.fails >= c.BreakerThreshold:
		return healthHalfOpen
	case w.suspect(silent):
		return healthSuspect
	}
	return healthOK
}

// suspect reports whether a worker silent for `silent` is in doubt: it has
// missed about 2.5 heartbeat intervals, or the last thing heard of it was a
// failed dispatch (w.mu held).
func (w *workerNode) suspect(silent time.Duration) bool {
	return silent >= w.cfg.HeartbeatInterval*5/2 || w.failedAt.After(w.seen)
}

func (w *workerNode) begin() {
	w.mu.Lock()
	w.active++
	w.dispatched++
	w.mu.Unlock()
}

func (w *workerNode) end() {
	w.mu.Lock()
	w.active--
	w.mu.Unlock()
}

// heard records evidence of life at now — a join, a heartbeat, a served
// dispatch, or a successful /healthz poll — counting a revival when it
// reaches a dead worker. A poll is stamped with the time it was sent, so
// evidence older than the record's is ignored rather than moving it back.
func (w *workerNode) heard(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !now.After(w.seen) {
		return
	}
	if w.healthAt(now) == healthDead {
		w.revived++
	}
	w.seen = now
}

// noteFailure records one worker-level dispatch failure at now. The
// BreakerThreshold-th consecutive failure trips the breaker, and so does a
// failed half-open probe job; either way the cooldown runs from now.
func (w *workerNode) noteFailure(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failures++
	w.fails++
	w.failedAt = now
	if w.probing || w.fails == w.cfg.BreakerThreshold {
		w.trips++
	}
	w.probing = false
}

// noteSuccess records a dispatch the worker served correctly at now: the
// failure run ends, which closes the breaker (a half-open probe's success
// returns the worker to the rotation), and a served job is evidence of life.
func (w *workerNode) noteSuccess(now time.Time) {
	w.mu.Lock()
	w.fails, w.probing = 0, false
	w.mu.Unlock()
	w.heard(now)
}

// releaseHalfOpen frees the half-open slot when the probe dispatch was
// aborted by cancellation, which proves nothing either way. The cooldown is
// already over, so the next pick may claim a fresh probe at once.
func (w *workerNode) releaseHalfOpen() {
	w.mu.Lock()
	w.probing = false
	w.mu.Unlock()
}

// info projects the record at now onto its wire form.
func (w *workerNode) info(now time.Time) WorkerInfo {
	w.mu.Lock()
	defer w.mu.Unlock()
	state := WorkerHealthy
	switch {
	case w.healthAt(now) == healthDead:
		state = WorkerDead
	case w.suspect(now.Sub(w.seen)):
		state = WorkerSuspect
	}
	breaker := BreakerClosed
	switch {
	case w.fails < w.cfg.BreakerThreshold:
	case w.probing:
		breaker = BreakerHalfOpen
	default:
		breaker = BreakerTripped
	}
	return WorkerInfo{
		ID: w.id, URL: w.url,
		State: state, Healthy: state == WorkerHealthy,
		Draining: w.draining, Heartbeat: w.beaten,
		Active: w.active, Dispatched: w.dispatched,
		Failures: w.failures, Revived: w.revived,
		Breaker: breaker, BreakerTrips: w.trips,
	}
}

// probeHealthz fetches a daemon's /healthz and returns its instance
// identity.
func probeHealthz(ctx context.Context, cl *Client) (string, error) {
	var h healthz
	if err := cl.get(ctx, "/healthz", &h); err != nil {
		return "", err
	}
	return h.Instance, nil
}

// poll asks the worker's /healthz, waiting up to timeout, and records an
// answer as evidence of life dated `sent`, when the poll went out. It reports
// whether the worker answered.
func (w *workerNode) poll(ctx context.Context, timeout time.Duration, sent time.Time) bool {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	if _, err := probeHealthz(ctx, w.cl); err != nil {
		return false
	}
	w.heard(sent)
	return true
}

// joinRequest is the body of POST /v1/workers.
type joinRequest struct {
	// URL is the joining worker's base URL, reachable from the dispatcher.
	URL string `json:"url"`
}

// heartbeatRequest is the body of POST /v1/workers/heartbeat.
type heartbeatRequest struct {
	// URL is the worker's base URL (its registration identity).
	URL string `json:"url"`
	// Instance is the worker daemon's /healthz instance ID, used to reject a
	// worker that is actually this dispatcher itself.
	Instance string `json:"instance"`
}

// parseWorkerURL validates and canonicalizes a worker's advertised base URL.
func parseWorkerURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return "", fmt.Errorf("worker url %q is not absolute", raw)
	}
	return strings.TrimRight(raw, "/"), nil
}

// handleJoin implements POST /v1/workers: register (or re-register) a worker
// by URL. The worker is probed before acceptance — an unreachable URL is
// rejected (joiners retry; see JoinFleet), and so is a URL that reaches this
// dispatcher itself, which would otherwise dispatch every job back onto its
// own queue, coalesce it with itself, and deadlock. Joining is idempotent —
// a URL that is already registered gets its existing ID back, and the join
// counts as evidence of life, which is how a restarted worker or dispatcher
// converges without duplicate nodes.
func (f *fleet) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad join request: %v", err)
		return
	}
	base, err := parseWorkerURL(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	instance, err := probeHealthz(ctx, f.workerClient(base))
	cancel()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "worker at %s is unreachable: %v", base, err)
		return
	}
	if instance == f.s.instance {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"worker url %s reaches this dispatcher itself; a dispatcher cannot be its own worker", base)
		return
	}

	n, created := f.register(base)
	n.heard(time.Now())
	writeWorker(w, n, created)
}

// handleHeartbeat implements POST /v1/workers/heartbeat. A beat from a known
// URL is evidence of life (reviving a dead worker); a beat from an unknown
// URL registers the worker on the spot — the beat itself is the liveness
// proof, no probe needed — which is what lets a restarted dispatcher re-learn
// its fleet within one heartbeat interval.
func (f *fleet) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad heartbeat: %v", err)
		return
	}
	base, err := parseWorkerURL(req.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if req.Instance == f.s.instance {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"worker url %s is this dispatcher itself; a dispatcher cannot be its own worker", base)
		return
	}

	n, created := f.register(base)
	n.mu.Lock()
	n.beaten = true
	n.mu.Unlock()
	n.heard(time.Now())
	writeWorker(w, n, created)
}

// writeWorker answers with the worker's record, as 201 Created if the
// request registered it.
func writeWorker(w http.ResponseWriter, n *workerNode, created bool) {
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	json.NewEncoder(w).Encode(n.info(time.Now()))
}

// workerClient builds the dispatcher's client for one worker, presenting the
// daemon's peer token when configured. With a fault injector installed
// (chaos tests), every request and response body to the worker routes
// through the injecting transport — which is how drops, delays, synthetic
// 5xxs, and mid-stream SSE cuts reach the dispatch path deterministically.
func (f *fleet) workerClient(base string) *Client {
	opts := []ClientOption{WithToken(f.s.cfg.PeerToken), WithUserAgent("tssd-dispatcher/1")}
	if in := f.s.cfg.Faults; in != nil {
		opts = append(opts, WithHTTPClient(&http.Client{
			Transport: faults.NewTransport(nil, in, faults.RPC, faults.Stream),
		}))
	}
	return NewClient(base, opts...)
}

// register finds or creates the node for a worker URL; it reports whether the
// node was newly created.
func (f *fleet) register(base string) (*workerNode, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.workers {
		if n.url == base {
			return n, false
		}
	}
	f.nextID++
	n := &workerNode{
		id:   fmt.Sprintf("worker-%d", f.nextID),
		url:  base,
		cl:   f.workerClient(base),
		cfg:  &f.s.cfg,
		seen: time.Now(),
	}
	f.workers = append(f.workers, n)
	return n, true
}

// handleList implements GET /v1/workers.
func (f *fleet) handleList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(f.stats().Workers)
}

// handleLeave implements DELETE /v1/workers/{id}: deregister a worker. Jobs
// currently relayed to it finish (or fail over) on their own; the worker
// just stops receiving new dispatches. Removing an unknown ID is a 404.
func (f *fleet) handleLeave(w http.ResponseWriter, r *http.Request) {
	if n := f.lookupWorker(w, r, true); n != nil {
		writeWorker(w, n, false)
	}
}

// lookupWorker resolves {id} for the leave and drain endpoints, answering
// 404 itself for an unknown ID; with remove, it also deregisters the worker.
func (f *fleet) lookupWorker(w http.ResponseWriter, r *http.Request, remove bool) *workerNode {
	id := r.PathValue("id")
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, n := range f.workers {
		if n.id == id {
			if remove {
				f.workers = slices.Delete(f.workers, i, i+1)
			}
			return n
		}
	}
	writeError(w, http.StatusNotFound, CodeNotFound, "no such worker %q", id)
	return nil
}

// handleDrain implements POST /v1/workers/{id}/drain (drain true): stop
// dispatching new jobs to the worker while jobs already relayed to it run to
// completion — the graceful way to take a node out for maintenance — and
// DELETE /v1/workers/{id}/drain (drain false), which returns it to the
// rotation. Both are idempotent.
func (f *fleet) handleDrain(drain bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := f.lookupWorker(w, r, false)
		if n == nil {
			return
		}
		n.mu.Lock()
		n.draining = drain
		n.mu.Unlock()
		writeWorker(w, n, false)
	}
}

// JoinFleet registers the worker daemon reachable at advertiseURL with the
// fleet dispatcher at dispatcherURL, retrying under joinRetry (1s doubling
// to a 30s cap, ±50% jitter) until it succeeds or ctx ends. It returns the
// assigned worker ID. The jitter is seeded from advertiseURL: deterministic
// per worker, but distinct across the fleet, so a whole fleet rejoining
// after a dispatcher restart spreads out instead of reconnecting in
// lockstep (thundering herd). cmd/tssd -join calls this at startup; opts
// typically carry WithToken for an authenticated dispatcher.
func JoinFleet(ctx context.Context, dispatcherURL, advertiseURL string, opts ...ClientOption) (string, error) {
	cl := NewClient(dispatcherURL, opts...)
	var id string
	err := joinRetry.do(ctx, advertiseURL, func(error) bool { return true }, func() error {
		info, err := cl.JoinWorker(ctx, advertiseURL)
		if err == nil {
			id = info.ID
		}
		return err
	})
	if err != nil {
		return "", fmt.Errorf("joining fleet at %s: %w (last error: %v)", dispatcherURL, ctx.Err(), err)
	}
	return id, nil
}

// HeartbeatLoop reports the worker at advertiseURL (whose daemon instance ID
// is instance — see Server.Instance) to the dispatcher every interval, until
// ctx ends. Beats are best-effort: a missed beat costs nothing but liveness
// credit, and because an unknown URL registers on contact, the loop doubles
// as re-registration — a restarted dispatcher re-learns this worker on the
// next beat. cmd/tssd runs this when started with -join and a heartbeat
// interval.
func HeartbeatLoop(ctx context.Context, dispatcherURL, advertiseURL, instance string, interval time.Duration, opts ...ClientOption) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	cl := NewClient(dispatcherURL, opts...)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		bctx, cancel := context.WithTimeout(ctx, interval)
		cl.Heartbeat(bctx, advertiseURL, instance)
		cancel()
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// workerCall sends one worker-registry request and decodes the worker
// record the dispatcher answers with.
func (c *Client) workerCall(ctx context.Context, method, path string, body any) (*WorkerInfo, error) {
	var info WorkerInfo
	if err := c.call(ctx, method, path, nil, body, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// JoinWorker registers workerURL with the dispatcher this client points at
// (POST /v1/workers) and returns the registration record.
func (c *Client) JoinWorker(ctx context.Context, workerURL string) (*WorkerInfo, error) {
	return c.workerCall(ctx, http.MethodPost, "/v1/workers", joinRequest{URL: workerURL})
}

// Heartbeat reports the worker at workerURL alive to the dispatcher
// (POST /v1/workers/heartbeat), registering it if unknown.
func (c *Client) Heartbeat(ctx context.Context, workerURL, instance string) (*WorkerInfo, error) {
	return c.workerCall(ctx, http.MethodPost, "/v1/workers/heartbeat",
		heartbeatRequest{URL: workerURL, Instance: instance})
}

// DrainWorker takes a worker out of the dispatch rotation gracefully
// (POST /v1/workers/{id}/drain): running jobs finish, new dispatches go
// elsewhere.
func (c *Client) DrainWorker(ctx context.Context, id string) (*WorkerInfo, error) {
	return c.workerCall(ctx, http.MethodPost, "/v1/workers/"+id+"/drain", nil)
}

// UndrainWorker returns a drained worker to the dispatch rotation
// (DELETE /v1/workers/{id}/drain).
func (c *Client) UndrainWorker(ctx context.Context, id string) (*WorkerInfo, error) {
	return c.workerCall(ctx, http.MethodDelete, "/v1/workers/"+id+"/drain", nil)
}

// Workers lists the dispatcher's registered workers (GET /v1/workers).
func (c *Client) Workers(ctx context.Context) ([]WorkerInfo, error) {
	var ws []WorkerInfo
	if err := c.get(ctx, "/v1/workers", &ws); err != nil {
		return nil, err
	}
	return ws, nil
}
