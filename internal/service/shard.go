package service

import (
	"context"
	"encoding/json"
	"fmt"

	"tasksuperscalar/internal/experiments"
	"tasksuperscalar/tss"
)

// Sweep sharding: a sweep job is not one opaque simulation but a grid of
// independent points, each a (workload, machine, seed) triple with its own
// content address. Instead of running the sweep monolithically, the daemon
// installs experiments.Options.RunSim and resolves every point through the
// same machinery API sim jobs use — the result store, in-flight coalescing,
// and (on a dispatcher) the fleet's remote attempt loop. The experiment
// still formats its output serially from ordered slots, so the reassembled
// sweep result is byte-identical to a monolithic run at any fan-out, while
// each point becomes individually cacheable, shareable, and retryable.

// runSweepByPoint runs a sweep job point by point through the resolver and
// returns its result bytes. A dispatcher widens the point fan-out to cover
// its workers.
func (s *Server) runSweepByPoint(j *job) ([]byte, error) {
	e := j.exec
	return runSweepWith(e.ctx, j.spec.Sweep, func(line string) {
		s.appendLog(e, line)
	}, func(o *experiments.Options) {
		if s.fleet != nil {
			if w := s.fleet.shardWidth(); w > o.Workers {
				o.Workers = w
			}
		}
		o.RunSim = s.pointRunner(e.ctx)
	})
}

// pointRunner returns the Options.RunSim hook bound to one sweep run: each
// constituent simulation is accounted in ShardStats and resolved through
// the content-addressed store, falling back to an inline uncached run for
// configurations a sim spec cannot express.
func (s *Server) pointRunner(swctx context.Context) func(experiments.SimJob) (*tss.Result, error) {
	return func(pj experiments.SimJob) (*tss.Result, error) {
		s.mu.Lock()
		s.shard.Points++
		s.mu.Unlock()

		spec, ok := pointSpec(pj)
		if !ok {
			// Not expressible as a sim spec: run it inline under the
			// sweep's own cancellation, exactly as the monolithic path
			// would, and skip the caches (no sound key exists for it).
			s.mu.Lock()
			s.shard.Inline++
			s.mu.Unlock()
			b := pj.Workload.Gen(pj.Tasks, pj.Seed)
			return tss.RunTasksCtx(swctx, b.Tasks, pj.Config)
		}

		payload, outcome, err := s.resolvePoint(swctx, spec)
		s.mu.Lock()
		switch {
		case err != nil:
			s.shard.Failed++
		case outcome == pointHit && s.cfg.CacheDir != "":
			s.shard.DiskHits++
		case outcome == pointHit:
			s.shard.MemHits++
		case outcome == pointCoalesced:
			s.shard.Coalesced++
		default:
			s.shard.Simulated++
		}
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return decodeSimResult(payload)
	}
}

// Point resolution outcomes (ShardStats buckets). A store hit counts as a
// disk hit on a daemon with -cache-dir, a memory hit otherwise.
const (
	pointHit       = "hit"
	pointCoalesced = "coalesced"
	pointSimulated = "sim"
)

// resolvePoint resolves one sweep point to its canonical result bytes:
// coalesce onto an identical in-flight execution, hit the result store, or
// claim the key and produce it as the run path produces any job. The
// claimed execution is placed in the inflight table as an internal job, so
// concurrent API submissions of the same sim spec coalesce onto the point
// and vice versa. ctx is the owning sweep's context: a point execution that
// was cancelled from outside (via a coalesced API job) is retried as long
// as the sweep itself is still live.
func (s *Server) resolvePoint(ctx context.Context, spec *JobSpec) ([]byte, string, error) {
	key := spec.Key()
	for {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		s.mu.Lock()
		if primary, ok := s.inflight[key]; ok {
			e := primary.exec
			s.mu.Unlock()
			payload, err := awaitExecution(ctx, e)
			switch {
			case err == nil:
				return payload, pointCoalesced, nil
			case ctx.Err() != nil:
				return nil, "", ctx.Err()
			case e.ctx != nil && e.ctx.Err() != nil:
				// That execution was cancelled, but our sweep was not:
				// release its inflight slot if its finisher has not yet
				// (idempotent, same guard as settle), then go around and
				// claim the key ourselves.
				s.mu.Lock()
				if p := s.inflight[key]; p != nil && p.exec == e {
					delete(s.inflight, key)
				}
				s.mu.Unlock()
				continue
			default:
				// Deterministic failure: re-running would reproduce it.
				return nil, "", err
			}
		}
		if payload, ok := s.store.Get(key); ok {
			s.mu.Unlock()
			return payload, pointHit, nil
		}
		// Claim the key with an internal (unregistered) job: visible to
		// coalescers through the inflight table, invisible to the job API.
		pj := &job{spec: *spec, key: key, exec: newRunnableExecution()}
		pj.exec.transition(StatusQueued, StatusRunning)
		s.inflight[key] = pj
		s.mu.Unlock()

		// Produce the point in the sweep's pool goroutine: point concurrency
		// is bounded by the sweep's pool width, never by (or competing for)
		// the server's run slots. The per-job deadline applies per point, the
		// granularity cancellation already has, so long sweeps make progress
		// while no single point can wedge a worker forever.
		payload, err := s.produce(pj)
		s.settle(pj, StatusRunning, payload, err)
		switch {
		case err == nil:
			return payload, pointSimulated, nil
		case ctx.Err() != nil:
			return nil, "", ctx.Err()
		case pj.exec.ctx.Err() != nil:
			// A coalesced API job cancelled our claimed execution while
			// the sweep lives on: resolve the point again from scratch.
			continue
		default:
			return nil, "", err
		}
	}
}

// awaitExecution blocks until e reaches a terminal state (returning its
// result or error) or ctx is cancelled.
func awaitExecution(ctx context.Context, e *execution) ([]byte, error) {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			e.wake()
		case <-stop:
		}
	}()
	e.mu.Lock()
	defer e.mu.Unlock()
	for !terminalStatus(e.status) && ctx.Err() == nil {
		e.cond.Wait()
	}
	if err := ctx.Err(); err != nil && !terminalStatus(e.status) {
		return nil, err
	}
	if e.status == StatusDone {
		return e.result, nil
	}
	return nil, fmt.Errorf("%s", e.errMsg)
}

// pointSpec converts one sweep point into the sim-spec form of the same
// simulation, or reports that the configuration is not expressible. The
// round-trip guard is exact: the spec is accepted only if its machine
// config's canonical string matches the point's (modulo schedule recording,
// an observer that is excluded from result payloads), so a key computed from
// the spec provably addresses the point's result.
func pointSpec(pj experiments.SimJob) (*JobSpec, bool) {
	c := pj.Config
	fe := c.Frontend
	if pj.Tasks < 1 ||
		fe.TRSBytesEach%1024 != 0 || fe.ORTBytesEach%1024 != 0 || fe.OVTBytesEach%1024 != 0 ||
		fe.TRSBytesEach == 0 || fe.ORTBytesEach == 0 || fe.OVTBytesEach == 0 {
		return nil, false
	}
	var rt string
	switch c.Runtime {
	case tss.HardwarePipeline:
		rt = "hardware"
	case tss.SoftwareRuntime:
		rt = "software"
	case tss.Sequential:
		rt = "sequential"
	default:
		return nil, false
	}
	tasks, seed := pj.Tasks, pj.Seed
	spec := &JobSpec{Kind: KindSim, Sim: &SimSpec{
		Workload: pj.Workload.Name,
		Tasks:    &tasks,
		Seed:     &seed,
		Machine: MachineSpec{
			Runtime: rt,
			Cores:   c.Cores,
			TRS:     fe.NumTRS,
			ORT:     fe.NumORT,
			TRSKB:   int(fe.TRSBytesEach >> 10),
			ORTKB:   int(fe.ORTBytesEach >> 10),
			OVTKB:   int(fe.OVTBytesEach >> 10),
			Memory:  c.Memory,
			Policy:  c.Backend.Policy,
			Classes: c.Backend.WorkerClasses,
		},
	}}
	if err := spec.Normalize(); err != nil {
		return nil, false
	}
	want := pj.Config
	want.Backend.RecordSchedule = false
	if spec.Sim.Config().CanonicalString() != want.CanonicalString() {
		return nil, false
	}
	return spec, true
}

// decodeSimResult reconstructs a tss.Result from a sim job's canonical
// payload bytes. Exact by construction: every numeric field is an integer or
// a float64, and Go's JSON encoding round-trips both losslessly, so a result
// resolved through the store is indistinguishable from one the in-process
// engine returned — which is what lets sharded sweeps reassemble
// byte-identical output from cached points.
func decodeSimResult(payload []byte) (*tss.Result, error) {
	var sr SimResult
	if err := json.Unmarshal(payload, &sr); err != nil {
		return nil, fmt.Errorf("sim result payload: %w", err)
	}
	if sr.SimVersion != tss.SimVersion {
		return nil, fmt.Errorf("sim result from simulator %q, want %q", sr.SimVersion, tss.SimVersion)
	}
	res := &tss.Result{
		Cores:            sr.Cores,
		Tasks:            sr.Tasks,
		Cycles:           sr.Cycles,
		TotalWorkCycles:  sr.TotalWorkCycles,
		DecodeRateCycles: sr.DecodeRateCycles,
		Utilization:      sr.Utilization,
		WindowMax:        sr.WindowMax,
	}
	switch sr.Runtime {
	case "task-superscalar":
		res.Kind = tss.HardwarePipeline
	case "software-runtime":
		res.Kind = tss.SoftwareRuntime
	case "sequential":
		res.Kind = tss.Sequential
	default:
		return nil, fmt.Errorf("sim result with unknown runtime %q", sr.Runtime)
	}
	if sr.Frontend != nil {
		res.Frontend = *sr.Frontend
	}
	if sr.Software != nil {
		res.Software = *sr.Software
	}
	if sr.Mem != nil {
		res.Mem = *sr.Mem
	}
	if sr.Dispatch != nil {
		res.Dispatch = *sr.Dispatch
	}
	return res, nil
}
