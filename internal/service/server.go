package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tasksuperscalar/internal/faults"
)

// Job statuses, in lifecycle order. A job ends in exactly one of the three
// terminal states: done, failed, or cancelled.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// terminalStatus reports whether a status is one of the terminal states.
func terminalStatus(st string) bool {
	return st == StatusDone || st == StatusFailed || st == StatusCancelled
}

// Config sizes a Server.
type Config struct {
	// Workers bounds how many jobs simulate concurrently (default
	// GOMAXPROCS). Each sweep job may additionally fan out its own
	// internal pool (SweepSpec.Workers, default 1).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker; submits beyond it
	// are rejected with 503 (default 1024).
	QueueDepth int
	// CacheEntries and CacheBytes bound the in-memory result store (defaults
	// 1024 entries, 64 MiB), which a daemon uses only without CacheDir.
	CacheEntries int
	CacheBytes   int64
	// MaxJobs bounds the job registry (default 4096): beyond it the
	// oldest *terminal* job records — including their pinned result
	// bytes — are evicted and subsequently 404. Results stay available
	// through the result store via re-submission of the same spec.
	MaxJobs int
	// Fleet switches the daemon into dispatcher mode: instead of running
	// jobs on a local pool it fans them out to remote tssd workers that
	// registered via POST /v1/workers, coalescing identical jobs across
	// nodes and retrying on another worker when one dies mid-job. Workers
	// is ignored (execution capacity lives on the workers); QueueDepth
	// bounds the concurrent dispatches.
	Fleet bool
	// CacheDir, when set, makes a persistent DiskStore the daemon's result
	// store in place of the in-memory one: every finished result is written
	// there as a self-verifying envelope, and every lookup reads it, so the
	// content-addressed result space survives restarts. CacheDiskBytes
	// bounds the directory (default 1 GiB); past it the least-recently-used
	// envelopes are evicted.
	CacheDir       string
	CacheDiskBytes int64
	// Auth, when set, requires a bearer token on every /v1 endpoint and
	// maps each token to a tenant with its own fair-share weight, in-flight
	// quota, and submission rate limit (see auth.go). Nil leaves the daemon
	// open: every request is the unlimited default tenant.
	Auth *AuthConfig
	// PeerToken is the bearer token this daemon presents when calling other
	// daemons (a dispatcher submitting to its workers). Empty sends none.
	PeerToken string
	// HeartbeatInterval paces fleet liveness (dispatcher mode, default 5s):
	// a worker unheard from — no join, heartbeat, served dispatch, or
	// /healthz answer — for ~2.5 intervals reads suspect, and for ~5 dead.
	// Once per interval the dispatcher polls the /healthz of every worker
	// it has not heard from since the previous sweep, so workers that never
	// heartbeat follow the same rule.
	HeartbeatInterval time.Duration
	// JournalDir, when set, makes accepted jobs crash-durable: every job
	// lifecycle transition is appended to an fsync'd, self-verifying journal
	// there, and on start the daemon replays it — a job whose result reached
	// the store settles from it, the rest re-enqueue and run, and determinism
	// makes the recovered outcomes byte-identical (see journal.go).
	JournalDir string
	// JobTimeout bounds each job execution (0 = unbounded): a job running
	// past it settles failed with a deadline error in the envelope. For
	// sweeps the bound applies per constituent point, matching the
	// cancellation granularity.
	JobTimeout time.Duration
	// DispatchRetry bounds one fleet dispatch: Attempts-1 worker-level
	// failures are absorbed before the job fails, with a backoff seeded by
	// the job key between attempts. Zero fields take the defaults: 5 tries
	// (4 retries), 100ms → 5s. Base also paces the no-worker wait's polls.
	DispatchRetry RetryPolicy
	// NoWorkerWait is how long a fleet job waits for a dispatchable worker
	// before failing, counted from when the job starts waiting, so a job
	// that has run for a while gets the whole wait too (default 30s;
	// negative = fail immediately). Graceful degradation: a fleet
	// momentarily at zero workers — mid-restart, all breakers tripped —
	// holds jobs instead of failing them instantly.
	NoWorkerWait time.Duration
	// BreakerThreshold consecutive dispatch failures trip a worker's circuit
	// breaker (default 3); a tripped worker receives no dispatches for
	// BreakerCooldown (default 5s), then one half-open probe job decides
	// between revival and re-trip (see worker.go).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Faults, when set, threads the deterministic fault injector through the
	// dispatcher's worker RPC/SSE transport and the persistent store's
	// writes. Test instrumentation; nil in production.
	Faults *faults.Injector
}

// execution is the shared run state of one content-addressed job. Jobs that
// coalesce onto the same in-flight run share one execution; its condition
// variable broadcasts every observable change to the SSE streams.
type execution struct {
	mu      sync.Mutex
	cond    *sync.Cond
	status  string
	done    uint64 // retired tasks (sim jobs)
	total   uint64 // total tasks once known (sim jobs)
	logs    []string
	logBase int // index of logs[0] in the full log stream
	result  []byte
	errMsg  string
	version uint64 // bumped on every observable change

	// ctx cancels the execution cooperatively (DELETE /v1/jobs/{id});
	// cancel is idempotent and always called once the execution reaches a
	// terminal state. Store-hit answers never run, so they carry neither.
	ctx    context.Context
	cancel context.CancelFunc
}

func newExecution(status string) *execution {
	e := &execution{status: status}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// newRunnableExecution returns a queued execution with a cancellation
// context attached (for jobs that will actually run, locally or remotely).
func newRunnableExecution() *execution {
	e := newExecution(StatusQueued)
	e.ctx, e.cancel = context.WithCancel(context.Background())
	return e
}

// transition moves status from → to atomically, waking watchers; it reports
// whether the move happened. A failed transition means another actor won the
// race (e.g. a cancel settled a queued job before a pick reached it).
func (e *execution) transition(from, to string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.status != from {
		return false
	}
	e.status = to
	e.version++
	e.cond.Broadcast()
	return true
}

// set applies fn under the lock and wakes every watcher.
func (e *execution) set(fn func()) {
	e.mu.Lock()
	fn()
	e.version++
	e.cond.Broadcast()
	e.mu.Unlock()
}

// wake broadcasts without changing state (watchers re-check their
// contexts). The lock is required for the broadcast to be reliable: without
// it, a disconnect could land between a watcher's condition check and its
// cond.Wait and be lost, leaving the watcher blocked until the job's next
// state change.
func (e *execution) wake() {
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// execSnapshot is a consistent copy of an execution's observable state.
type execSnapshot struct {
	status      string
	done, total uint64
	logs        []string // full retained log
	logBase     int
	result      []byte
	errMsg      string
	version     uint64
}

func (e *execution) snapshot() execSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return execSnapshot{
		status: e.status, done: e.done, total: e.total,
		logs: e.logs, logBase: e.logBase,
		result: e.result, errMsg: e.errMsg, version: e.version,
	}
}

func (s execSnapshot) terminal() bool { return terminalStatus(s.status) }

// job is one submission: its own identity and spec, sharing an execution
// with any identical submissions it was coalesced with. Sweep points are
// also jobs (unregistered internal ones), which is what lets API submissions
// and sweep shards coalesce onto each other's executions.
type job struct {
	id        string
	spec      JobSpec
	key       string
	exec      *execution
	cached    bool     // answered from the result store at admission
	coalesced bool     // attached to an identical in-flight run
	via       []string // dispatcher chain that routed the job here (fleet)

	// tenant is the submitting tenant (nil on internal sweep points); class
	// is the scheduling priority class; seq is the scheduler-assigned
	// arrival sequence.
	tenant *tenantState
	class  int
	seq    uint64
	// slotHeld marks that the job holds one of its tenant's in-flight
	// quota slots; settle releases it exactly once.
	slotHeld atomic.Bool
}

// Server is the tssd daemon: an http.Handler plus the intake, run path and
// result store behind it. Create with New, serve via Handler, and Close when
// done.
type Server struct {
	cfg      Config
	store    resultStore // the DiskStore with Config.CacheDir, else a Cache
	journal  *journal    // non-nil when Config.JournalDir is set
	mux      *http.ServeMux
	fleet    *fleet // non-nil in dispatcher mode
	instance string // unique per-process daemon identity (see handleHealthz)

	// sched is the weighted fair-share queue between accepted submissions
	// and the pump, which runs its picks on a plain daemon and a dispatcher
	// alike.
	sched *scheduler
	// tokens maps bearer tokens to tenants (empty = open daemon);
	// tenantOrder is the deterministic /stats ordering; defaultTenant is
	// the identity of unauthenticated deployments.
	tokens        map[string]*tenantState
	tenantOrder   []*tenantState
	defaultTenant *tenantState

	wg sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	jobs      map[string]*job
	order     []string        // job IDs in submission order
	inflight  map[string]*job // key → primary job currently queued/running
	nextID    uint64
	submitted uint64 // accepted submissions, journal-replayed jobs included
	coalesced uint64
	completed uint64
	failed    uint64
	cancelled uint64
	cacheHits uint64 // submissions answered from the in-memory store
	diskHits  uint64 // submissions answered from the persistent store
	shard     ShardStats
}

// New starts a server: its intake is running on return. The error paths
// are a Config.CacheDir that cannot be opened and an invalid Config.Auth.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 5 * time.Second
	}
	if cfg.DispatchRetry.Attempts <= 0 {
		cfg.DispatchRetry.Attempts = dispatchRetry.Attempts
	}
	if cfg.DispatchRetry.Base <= 0 {
		cfg.DispatchRetry.Base = dispatchRetry.Base
	}
	if cfg.DispatchRetry.Max <= 0 {
		cfg.DispatchRetry.Max = dispatchRetry.Max
	}
	switch {
	case cfg.NoWorkerWait == 0:
		cfg.NoWorkerWait = 30 * time.Second
	case cfg.NoWorkerWait < 0:
		cfg.NoWorkerWait = 0
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	s := &Server{
		cfg:           cfg,
		sched:         newScheduler(cfg.QueueDepth),
		tokens:        make(map[string]*tenantState),
		defaultTenant: newTenantState(TenantConfig{Name: DefaultTenant}),
		jobs:          make(map[string]*job),
		inflight:      make(map[string]*job),
		instance:      newInstanceID(),
	}
	if cfg.Auth != nil {
		if err := cfg.Auth.Validate(); err != nil {
			return nil, err
		}
		for _, tc := range cfg.Auth.Tenants {
			t := newTenantState(tc)
			s.tokens[tc.Token] = t
			s.tenantOrder = append(s.tenantOrder, t)
		}
	} else {
		s.tenantOrder = []*tenantState{s.defaultTenant}
	}
	if cfg.CacheDir != "" {
		disk, err := OpenDiskStore(cfg.CacheDir, cfg.CacheDiskBytes)
		if err != nil {
			return nil, err
		}
		disk.SetFaults(cfg.Faults)
		s.store = disk
	} else {
		s.store = NewCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.protect(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.protect(s.handleList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.protect(s.handleJob))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.protect(s.handleCancel))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.protect(s.handleResult))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.protect(s.handleEvents))
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Open and replay the journal before the pump starts: recovered jobs
	// are queued (in original ID order) ahead of the first pick, and no
	// settle can race the replay.
	if cfg.JournalDir != "" {
		jl, live, err := openJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.journal = jl
		s.replayJournal(live)
	}
	width := cfg.Workers
	if cfg.Fleet {
		// Execution capacity lives on the workers; QueueDepth bounds the
		// concurrent dispatches.
		width = cfg.QueueDepth
		s.fleet = newFleet(s)
		s.mux.HandleFunc("POST /v1/workers", s.protect(s.fleet.handleJoin))
		s.mux.HandleFunc("POST /v1/workers/heartbeat", s.protect(s.fleet.handleHeartbeat))
		s.mux.HandleFunc("GET /v1/workers", s.protect(s.fleet.handleList))
		s.mux.HandleFunc("DELETE /v1/workers/{id}", s.protect(s.fleet.handleLeave))
		s.mux.HandleFunc("POST /v1/workers/{id}/drain", s.protect(s.fleet.handleDrain(true)))
		s.mux.HandleFunc("DELETE /v1/workers/{id}/drain", s.protect(s.fleet.handleDrain(false)))
	}
	s.wg.Add(1)
	go s.pump(width)
	return s, nil
}

// Instance returns the daemon's unique per-process identity (the same value
// /healthz reports); fleet workers send it with their heartbeats.
func (s *Server) Instance() string { return s.instance }

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close rejects further submissions and waits for the running jobs to
// drain. In-flight jobs finish; queued jobs still run (the queue is drained,
// not dropped). A Close after Close or Kill returns at once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.fleet != nil {
		close(s.fleet.stop)
	}
	s.sched.close()
	s.wg.Wait()
	s.journal.Close()
}

// Kill simulates a crash: where Close drains, Kill halts. The journal and
// the persistent store stop persisting (writes issued after a power cut
// never land), queued jobs are dropped on the floor, and in-flight
// executions are cancelled so their goroutines exit without settling
// durably. A new Server opened on the same JournalDir/CacheDir recovers
// every job that had not durably settled — the crash/recovery contract the
// chaos suite asserts.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	inflight := make([]*execution, 0, len(s.inflight))
	for _, j := range s.inflight {
		inflight = append(inflight, j.exec)
	}
	s.mu.Unlock()
	// Halt durability first: nothing that happens after the "crash instant"
	// may reach the journal or the store.
	s.journal.halt()
	s.store.halt()
	if s.fleet != nil {
		close(s.fleet.stop)
	}
	s.sched.abort()
	for _, e := range inflight {
		if e.cancel != nil {
			e.cancel()
		}
	}
	s.wg.Wait()
}

// pump is the daemon's one intake. It claims one of width run slots and only
// then takes the scheduler's next pick, so a job waiting for a slot keeps its
// place in fair-share order; each pick runs on its own goroutine. pump exits
// once the scheduler is closed and drained; running jobs then finish under
// the server WaitGroup.
func (s *Server) pump(width int) {
	defer s.wg.Done()
	slots := make(chan struct{}, width)
	for {
		slots <- struct{}{}
		j := s.sched.next()
		if j == nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer func() {
				<-slots
				s.wg.Done()
			}()
			s.run(j)
		}()
	}
}

// run is the one run path of a picked job: queued to running, produce, then
// settle. A cancel that won the race for the transition already settled the
// job, so run just returns.
func (s *Server) run(j *job) {
	if !j.exec.transition(StatusQueued, StatusRunning) {
		return
	}
	result, err := s.produce(j)
	s.settle(j, StatusRunning, result, err)
}

// produce computes a running job's result. It never reads the result store:
// every admission path looked the key up before the job could run. A sweep
// runs point by point; a sim (Normalize admits no other kind) runs under the
// per-job deadline, inline on a plain daemon or through the fleet's attempt
// loop on a dispatcher. produce is the one place that chooses where a
// simulation runs.
func (s *Server) produce(j *job) ([]byte, error) {
	if j.spec.Kind == KindSweep {
		return s.runSweepByPoint(j)
	}
	e := j.exec
	ctx, cancel := s.execCtx(e)
	defer cancel()
	var result []byte
	var err error
	if s.fleet != nil {
		result, err = s.fleet.execute(ctx, j)
	} else {
		result, err = runSim(ctx, j.spec.Sim, func(done, total uint64) {
			e.set(func() { e.done, e.total = done, total })
		})
	}
	return result, s.deadlineErr(e, err)
}

// execCtx derives the context an execution runs under: its cancel context,
// bounded by the per-job deadline when one is configured.
func (s *Server) execCtx(e *execution) (context.Context, context.CancelFunc) {
	if s.cfg.JobTimeout <= 0 {
		return e.ctx, func() {}
	}
	return context.WithTimeout(e.ctx, s.cfg.JobTimeout)
}

// deadlineErr rewrites a per-job deadline expiry into an explicit envelope
// message. The parent execution context is still live in that case, so
// settle classifies the job failed (not cancelled) — a deadline is the
// server's verdict, not the client's request.
func (s *Server) deadlineErr(e *execution, err error) error {
	if err != nil && errors.Is(err, context.DeadlineExceeded) && (e.ctx == nil || e.ctx.Err() == nil) {
		return fmt.Errorf("job exceeded its %s deadline (-job-timeout): %w", s.cfg.JobTimeout, err)
	}
	return err
}

// maxLogLines bounds the per-job log retained for SSE replay; older lines
// are dropped, newest kept.
const maxLogLines = 4096

// appendLog appends one log line to an execution, trimming to the retention
// bound and waking the SSE watchers.
func (s *Server) appendLog(e *execution, line string) {
	e.set(func() {
		e.logs = append(e.logs, line)
		if over := len(e.logs) - maxLogLines; over > 0 {
			e.logs = e.logs[over:]
			e.logBase += over
		}
	})
}

// settle publishes an execution's terminal state exactly once, and only
// while the execution is still in `from`: running after produce, queued for
// a cancel that beat every pick (the job then also leaves its scheduler
// queue). The status is done with its result on success, cancelled when the
// execution's context was cancelled, failed otherwise. A successful result
// goes into the result store before the status becomes visible and before
// the key's inflight slot is released, so a store lookup under s.mu that
// finds no inflight primary also finds any result that primary produced. An
// execution that has left `from` is untouched, which is what makes status
// transitions idempotent under every race.
//
// A registered job (one with an ID) is also counted by terminal state and
// returns its tenant quota slot. That happens under s.mu in the same
// critical section that publishes the status (lock order s.mu, then e.mu),
// so a client that observes the terminal status, by polling or on the SSE
// stream, and then reads /stats always finds the job counted. Internal sweep
// points have no ID and account themselves in ShardStats.
func (s *Server) settle(j *job, from string, result []byte, err error) {
	e := j.exec
	status := StatusDone
	if err != nil {
		if errors.Is(err, context.Canceled) || (e.ctx != nil && e.ctx.Err() != nil) {
			status = StatusCancelled
		} else {
			status = StatusFailed
		}
	}

	if status == StatusDone {
		s.store.Put(j.key, result)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	e.mu.Lock()
	if e.status != from {
		e.mu.Unlock()
		return
	}
	switch status {
	case StatusDone:
		e.result = result
	default:
		e.errMsg = err.Error()
	}
	registered := j.id != ""
	if registered {
		s.countSettledLocked(j, status)
	}
	e.status = status
	e.version++
	e.cond.Broadcast()
	e.mu.Unlock()
	if e.cancel != nil {
		e.cancel()
	}
	if from == StatusQueued {
		s.sched.remove(j)
	}
	if p := s.inflight[j.key]; p != nil && p.exec == e {
		delete(s.inflight, j.key)
	}
	// Journal the settlement under the same s.mu hold that releases the
	// inflight slot: accepts are journaled under s.mu too, so a new
	// submission of this key can never have its accept record cleared by
	// this (earlier) settle. Keys never journaled (internal sweep points)
	// write nothing.
	s.journal.settleKey(j.key, status)
	if registered {
		s.evictJobsLocked()
	}
}

// releaseSlot returns the job's tenant quota slot, exactly once.
func (s *Server) releaseSlot(j *job) {
	if j.tenant != nil && j.slotHeld.CompareAndSwap(true, false) {
		j.tenant.releaseSlot()
	}
}

// countSettledLocked records a primary job's settlement in the daemon and
// tenant counters and returns its quota slot. Every settled submission is
// exactly one of completed, failed, cancelled, coalesced, cache hit, or disk
// hit (the conservation invariant); the hits are counted at admission by
// storeHitLocked. The caller holds s.mu.
func (s *Server) countSettledLocked(j *job, status string) {
	s.releaseSlot(j)
	switch status {
	case StatusDone:
		s.completed++
		if j.tenant != nil {
			j.tenant.noteCompleted()
		}
	case StatusFailed:
		s.failed++
	case StatusCancelled:
		s.cancelled++
	}
}

// storeHitLocked answers j from a stored result, born done and cached, and
// counts a disk hit with -cache-dir, else a cache hit. Caller holds s.mu.
func (s *Server) storeHitLocked(j *job, result []byte) {
	j.exec = newExecution(StatusDone)
	j.exec.result = result
	j.cached = true
	if s.cfg.CacheDir != "" {
		s.diskHits++
	} else {
		s.cacheHits++
	}
}

// SubmitStatus is the response to POST /v1/jobs and the per-job body of the
// job and list endpoints.
type SubmitStatus struct {
	// ID names the job for the polling and SSE endpoints.
	ID string `json:"id"`
	// Kind echoes the spec's kind.
	Kind string `json:"kind"`
	// Key is the job's content address (hex SHA-256 of the normalized
	// spec; see JobSpec.Key).
	Key string `json:"key"`
	// Status is queued, running, or one of the terminal states: done,
	// failed, or cancelled.
	Status string `json:"status"`
	// Tenant is the submitting tenant; Priority is the scheduling class
	// (interactive or bulk).
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
	// Cached reports that the result was served from the result store
	// without re-simulating.
	Cached bool `json:"cached"`
	// Coalesced reports that the submission attached to an identical
	// in-flight run instead of starting its own.
	Coalesced bool `json:"coalesced"`
	// Done/Total report task-retirement progress for sim jobs.
	Done  uint64 `json:"done"`
	Total uint64 `json:"total"`
	// Error is the failure message for failed jobs.
	Error string `json:"error,omitempty"`
	// Result is the canonical result payload, present once done.
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) statusOf(j *job) SubmitStatus {
	snap := j.exec.snapshot()
	st := SubmitStatus{
		ID: j.id, Kind: j.spec.Kind, Key: j.key,
		Status: snap.status, Cached: j.cached, Coalesced: j.coalesced,
		Done: snap.done, Total: snap.total, Error: snap.errMsg,
		Priority: j.spec.Priority,
	}
	if j.tenant != nil {
		st.Tenant = j.tenant.name
	}
	if snap.status == StatusDone {
		st.Result = snap.result
	}
	return st
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := s.requestTenant(r)
	// Submission rate limit: counted per request, before any work is done
	// on its behalf (coalesced and store-hit submissions are submissions
	// too — the limit protects the daemon, not just the workers).
	if !tenant.allowRate(time.Now()) {
		writeError(w, http.StatusTooManyRequests, CodeRateLimited,
			"tenant %q exceeded its submission rate (%.3g/s)", tenant.name, tenant.ratePerSec)
		return
	}
	var via []string
	if h := r.Header.Get(DispatchPathHeader); h != "" {
		via = strings.Split(h, ",")
		for _, inst := range via {
			if inst == s.instance {
				// The job has already passed through this daemon: the
				// fleet topology contains a dispatch cycle (dispatchers
				// registered as each other's workers). Accepting it would
				// coalesce the job with itself and hang both ends.
				writeError(w, http.StatusBadRequest, CodeDispatchLoop,
					"dispatch loop detected: this daemon is already in the job's dispatch path")
				return
			}
		}
	}
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad job spec: %v", err)
		return
	}
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "invalid job: %v", err)
		return
	}
	key := spec.Key()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server shutting down")
		return
	}
	j := &job{spec: spec, key: key, via: via, tenant: tenant, class: classOf(spec.Priority)}
	if primary, ok := s.inflight[key]; ok {
		// Identical spec already queued or running: share its execution.
		// No quota slot: the submission occupies no worker of its own.
		j.exec = primary.exec
		j.coalesced = true
		s.coalesced++
		s.register(j)
		// Coalesced submissions are journaled too (with their own spec):
		// replay re-groups live ids by key, so after a crash the coalesced
		// job re-attaches to — or, if alone, becomes — the key's primary.
		s.journalAccept(j)
	} else if result, ok := s.store.Get(key); ok {
		// Content-addressed hit: answer without simulating. Looked up
		// under s.mu, where settle's ordering makes a run that just
		// finished visible, so no finished run starts twice.
		s.storeHitLocked(j, result)
		s.register(j)
	} else if !tenant.acquireSlot() {
		// The job would occupy execution capacity. A quota 429 outranks a
		// queue-full 503, and neither records anything.
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, CodeQuotaExceeded,
			"tenant %q is at its in-flight job quota (%d)", tenant.name, tenant.maxInflight)
		return
	} else if s.sched.full() {
		tenant.releaseSlot()
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, CodeQueueFull,
			"job queue full (%d pending)", s.cfg.QueueDepth)
		return
	} else {
		j.slotHeld.Store(true)
		j.exec = newRunnableExecution()
		// Register and journal before the enqueue: the accept record must be
		// durable before the pump can pick the job, or a fast settle could
		// land in the journal ahead of its own accept. All under one s.mu
		// hold, so a job picked immediately still blocks on s.mu in settle
		// until it is fully recorded. Under s.mu the queue only shrinks, so
		// the enqueue cannot fail; the pump picks in weighted fair order.
		s.register(j)
		s.journalAccept(j)
		s.sched.enqueue(j)
		s.inflight[key] = j
	}
	s.submitted++
	tenant.noteSubmitted()
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(s.statusOf(j))
}

// register assigns the job its ID and records it; caller holds s.mu.
func (s *Server) register(j *job) {
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictJobsLocked()
}

// evictJobsLocked drops the oldest terminal job records (and with them the
// result bytes their executions pin) once the registry exceeds MaxJobs, so
// daemon memory is bounded by the result store plus MaxJobs records rather
// than growing with the submission history. Non-terminal jobs are never
// evicted. Caller holds s.mu.
func (s *Server) evictJobsLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j.exec.snapshot().terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job %q", r.PathValue("id"))
		return nil
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.statusOf(j))
}

// handleCancel implements DELETE /v1/jobs/{id}: cooperative, idempotent
// cancellation. It cancels the execution's context; a queued job then
// settles cancelled on the spot and leaves its scheduler queue, while a
// running job's engine loop abandons the run within one cancellation-poll
// interval (a dispatched job is also cancelled on its remote worker, best
// effort) and its run path settles it. A terminal job — done, failed, or
// already cancelled — is left untouched. The response is always the job's
// current status, so repeated DELETEs observe a stable terminal state.
// Cancelling any submission that coalesced onto a shared execution cancels
// that execution for every submission attached to it.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if e := j.exec; e.cancel != nil {
		e.cancel()
		s.mu.Lock()
		p := s.inflight[j.key]
		s.mu.Unlock()
		if p != nil && p.exec == e {
			s.settle(p, StatusQueued, nil, errors.New("cancelled before execution"))
		}
	}

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.statusOf(j))
}

// handleList implements GET /v1/jobs?status=&tenant=&limit=&after=: the
// operator's queue-inspection endpoint. Jobs come back in submission order
// with deterministic cursor pagination: `after` is a job ID and the page
// resumes strictly after it, so walking pages while jobs settle never skips
// or repeats a job that existed when the walk started (evicted records are
// simply absent). Status and tenant filters apply before pagination.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	statusFilter := q.Get("status")
	if statusFilter != "" {
		switch statusFilter {
		case StatusQueued, StatusRunning, StatusDone, StatusFailed, StatusCancelled:
		default:
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				"unknown status filter %q", statusFilter)
			return
		}
	}
	tenantFilter := q.Get("tenant")
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	if limit > 1000 {
		limit = 1000
	}
	afterSeq := uint64(0)
	if v := q.Get("after"); v != "" {
		n, ok := jobIDSeq(v)
		if !ok {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad cursor %q", v)
			return
		}
		afterSeq = n
	}

	s.mu.Lock()
	list := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if n, _ := jobIDSeq(j.id); n <= afterSeq && afterSeq > 0 {
			continue
		}
		if tenantFilter != "" && (j.tenant == nil || j.tenant.name != tenantFilter) {
			continue
		}
		list = append(list, j)
	}
	s.mu.Unlock()

	out := JobList{Jobs: make([]SubmitStatus, 0, limit)}
	for i, j := range list {
		st := s.statusOf(j)
		if statusFilter != "" && st.Status != statusFilter {
			continue
		}
		st.Result = nil // listings stay light; fetch per job
		out.Jobs = append(out.Jobs, st)
		if len(out.Jobs) == limit {
			if i < len(list)-1 {
				out.NextAfter = j.id
			}
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// jobIDSeq parses the numeric suffix of a job ID ("job-17" → 17).
func jobIDSeq(id string) (uint64, bool) {
	const prefix = "job-"
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(id[len(prefix):], 10, 64)
	return n, err == nil
}

// handleResult serves the raw canonical result bytes — the byte-identity
// surface: these bytes are exactly what RunSpec produces for the same spec.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	snap := j.exec.snapshot()
	switch snap.status {
	case StatusDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Tssd-Cached", fmt.Sprintf("%v", j.cached))
		w.Write(snap.result)
	case StatusFailed:
		writeError(w, http.StatusConflict, CodeJobFailed, "job failed: %s", snap.errMsg)
	case StatusCancelled:
		writeError(w, http.StatusConflict, CodeJobCancelled, "job cancelled: %s", snap.errMsg)
	default:
		writeError(w, http.StatusConflict, CodeNotReady, "job is %s; result not available yet", snap.status)
	}
}

// handleEvents streams the job over Server-Sent Events: a status event on
// every transition, progress events for sim jobs, log events for sweep
// jobs, and a terminal result or error event (see docs/SERVICE.md).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	e := j.exec
	// Wake the cond loop when the client goes away.
	ctx := r.Context()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			e.wake()
		case <-watchDone:
		}
	}()

	emit := func(event string, data any) {
		b, _ := json.Marshal(data)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	}

	var lastStatus string
	var lastDone uint64
	sentDone := false
	nextLog := 0
	for {
		snap := e.snapshot()
		if snap.status != lastStatus {
			lastStatus = snap.status
			emit("status", map[string]any{"id": j.id, "status": snap.status, "cached": j.cached})
		}
		if snap.total > 0 && (snap.done != lastDone || !sentDone) {
			lastDone, sentDone = snap.done, true
			emit("progress", map[string]any{"done": snap.done, "total": snap.total})
		}
		if nextLog < snap.logBase {
			nextLog = snap.logBase // lines rotated out before we read them
		}
		for ; nextLog-snap.logBase < len(snap.logs); nextLog++ {
			emit("log", map[string]any{"line": snap.logs[nextLog-snap.logBase]})
		}
		if snap.terminal() {
			switch snap.status {
			case StatusDone:
				fmt.Fprintf(w, "event: result\ndata: %s\n\n", snap.result)
			case StatusCancelled:
				emit("cancelled", map[string]any{"error": snap.errMsg})
			default:
				emit("error", map[string]any{"error": snap.errMsg})
			}
			fl.Flush()
			return
		}
		fl.Flush()

		e.mu.Lock()
		for e.version == snap.version && ctx.Err() == nil {
			e.cond.Wait()
		}
		e.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
	}
}

// ServerStats is the body of GET /stats.
type ServerStats struct {
	// Workers is the job pool width; QueueDepth its submit bound.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// Submitted counts every accepted job; Completed/Failed/Cancelled
	// count finished primary executions by terminal state; Coalesced
	// counts submissions that attached to an identical in-flight run;
	// CacheHits/DiskHits count submissions answered from the in-memory
	// cache and the persistent store without running; Inflight is the
	// number of distinct executions currently queued or running. Every
	// settled submission is exactly one of completed, failed, cancelled,
	// coalesced, a cache hit, or a disk hit — the conservation invariant
	// the concurrency tests assert. A hit is a DiskHit with -cache-dir, else
	// a CacheHit; both are job-level, not inflated by per-point lookups.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Coalesced uint64 `json:"coalesced"`
	CacheHits uint64 `json:"cache_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Inflight  int    `json:"inflight"`
	// Sched reports the fair-share scheduler: queue depth overall and per
	// priority class, plus total dispatches.
	Sched SchedStats `json:"sched"`
	// Tenants reports per-tenant admission limits, counters, and queue
	// depths, in configuration order — rich enough to drive an autoscaler
	// (per-tenant backlog) or a quota dashboard.
	Tenants []TenantStats `json:"tenants"`
	// Shard reports sweep decomposition: how many constituent points were
	// resolved, and how (its own conservation invariant; see ShardStats).
	Shard ShardStats `json:"shard"`
	// Cache reports the result store's occupancy and hit/miss/eviction
	// counters: the in-memory store's, or only Disk with -cache-dir.
	Cache CacheStats `json:"cache"`
	// Fleet reports dispatcher-mode state (nil on a plain daemon).
	Fleet *FleetStats `json:"fleet,omitempty"`
	// Journal reports crash-durability state (nil without -journal-dir).
	Journal *JournalStats `json:"journal,omitempty"`
}

// ShardStats counts sweep-point resolution outcomes. Every point a sharded
// sweep enumerates settles as exactly one of the outcome counters:
// Points == MemHits + DiskHits + Coalesced + Simulated + Inline + Failed
// once all sweeps have drained.
type ShardStats struct {
	// Points counts every constituent simulation a sharded sweep asked
	// the resolver for.
	Points uint64 `json:"points"`
	// MemHits/DiskHits count points answered from the in-memory store or,
	// with -cache-dir, the persistent one; Coalesced counts points that attached to an
	// identical in-flight execution (another sweep's point or an API sim
	// job); Simulated counts points actually executed (locally or on a
	// fleet worker); Inline counts points whose machine configuration is
	// not expressible as a sim spec, run inside the sweep without caching;
	// Failed counts points whose resolution errored.
	MemHits   uint64 `json:"mem_hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Coalesced uint64 `json:"coalesced"`
	Simulated uint64 `json:"simulated"`
	Inline    uint64 `json:"inline"`
	Failed    uint64 `json:"failed"`
}

// Stats snapshots the daemon counters (also served on /stats).
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	st := ServerStats{
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Submitted:  s.submitted,
		Completed:  s.completed,
		Failed:     s.failed,
		Cancelled:  s.cancelled,
		Coalesced:  s.coalesced,
		CacheHits:  s.cacheHits,
		DiskHits:   s.diskHits,
		Inflight:   len(s.inflight),
		Shard:      s.shard,
	}
	s.mu.Unlock()
	byTenant := make(map[string]*TenantStats, len(s.tenantOrder))
	st.Tenants = make([]TenantStats, len(s.tenantOrder))
	for i, t := range s.tenantOrder {
		st.Tenants[i] = t.snapshot()
		byTenant[t.name] = &st.Tenants[i]
	}
	st.Sched = s.sched.stats(byTenant)
	st.Cache = s.store.stats()
	if s.fleet != nil {
		fs := s.fleet.stats()
		st.Fleet = &fs
	}
	if s.journal != nil {
		js := s.journal.stats()
		st.Journal = &js
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// healthz is the body of GET /healthz. Instance uniquely identifies the
// daemon process; a fleet dispatcher compares it against its own on worker
// registration to reject a join that would dispatch jobs back to itself.
type healthz struct {
	OK       bool   `json:"ok"`
	Instance string `json:"instance"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(healthz{OK: true, Instance: s.instance})
}

// newInstanceID returns a random per-process daemon identity.
func newInstanceID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}
