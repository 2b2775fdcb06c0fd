package service

import (
	"testing"
	"time"
)

// Every transition of a worker's derived health, on a fake clock. Each case
// replays its steps against a fresh record registered at t0, and after every
// step reads the record back both as pick sees it and as /v1/workers shows
// it (State, Breaker).
func TestWorkerHealthTransitions(t *testing.T) {
	const iv = time.Second
	cfg := Config{HeartbeatInterval: iv, BreakerThreshold: 2, BreakerCooldown: 2 * iv}
	t0 := time.Unix(1_000_000, 0)

	type step struct {
		at     time.Duration
		op     string // heard, fail, serve, pick, release, drain; empty only reads
		picked bool   // op pick: whether pick returned the worker
		want   health
		state  string
		brk    string
	}
	// tripAt1 prefixes steps with two failed dispatches at one interval:
	// the breaker trips and cools down until 3 intervals.
	tripAt1 := func(steps ...step) []step {
		return append([]step{
			{at: iv, op: "fail", want: healthSuspect, state: WorkerSuspect, brk: BreakerClosed},
			{at: iv, op: "fail", want: healthTripped, state: WorkerSuspect, brk: BreakerTripped},
		}, steps...)
	}
	cases := []struct {
		name           string
		steps          []step
		revived, trips uint64
	}{
		{name: "silence ages healthy to suspect to dead; evidence revives", revived: 1, steps: []step{
			{at: 0, want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
			{at: 5*iv/2 - 1, want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
			{at: 5 * iv / 2, want: healthSuspect, state: WorkerSuspect, brk: BreakerClosed},
			{at: 5*iv - 1, want: healthSuspect, state: WorkerSuspect, brk: BreakerClosed},
			{at: 5 * iv, want: healthDead, state: WorkerDead, brk: BreakerClosed},
			{at: 5 * iv, op: "pick", picked: false, want: healthDead, state: WorkerDead, brk: BreakerClosed},
			{at: 6 * iv, op: "heard", want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
		}},
		{name: "stale evidence does not move the record back", steps: []step{
			{at: 2 * iv, op: "heard", want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
			{at: iv, op: "heard", want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
			{at: 9*iv/2 - 1, want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
			{at: 9 * iv / 2, want: healthSuspect, state: WorkerSuspect, brk: BreakerClosed},
		}},
		{name: "a failed dispatch is suspect until a beat clears it", steps: []step{
			{at: iv, op: "fail", want: healthSuspect, state: WorkerSuspect, brk: BreakerClosed},
			{at: iv, op: "pick", picked: true, want: healthSuspect, state: WorkerSuspect, brk: BreakerClosed},
			{at: 2 * iv, op: "heard", want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
		}},
		{name: "a served dispatch ends the failure run", steps: []step{
			{at: iv, op: "fail", want: healthSuspect, state: WorkerSuspect, brk: BreakerClosed},
			{at: 2 * iv, op: "serve", want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
			{at: 3 * iv, op: "fail", want: healthSuspect, state: WorkerSuspect, brk: BreakerClosed},
		}},
		{name: "a beat clears the suspect but not the trip", trips: 1, steps: tripAt1(
			step{at: 2 * iv, op: "heard", want: healthTripped, state: WorkerHealthy, brk: BreakerTripped},
			step{at: 2 * iv, op: "pick", picked: false, want: healthTripped, state: WorkerHealthy, brk: BreakerTripped},
			step{at: 3*iv - 1, want: healthTripped, state: WorkerHealthy, brk: BreakerTripped},
			step{at: 3 * iv, want: healthHalfOpen, state: WorkerHealthy, brk: BreakerTripped},
		)},
		{name: "one claimer wins the half-open slot; its success closes the breaker", trips: 1, steps: tripAt1(
			step{at: 3 * iv, op: "pick", picked: true, want: healthTripped, state: WorkerSuspect, brk: BreakerHalfOpen},
			step{at: 3 * iv, op: "pick", picked: false, want: healthTripped, state: WorkerSuspect, brk: BreakerHalfOpen},
			step{at: 4 * iv, op: "serve", want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
		)},
		{name: "a cancelled probe releases the slot", trips: 1, steps: tripAt1(
			step{at: 3 * iv, op: "pick", picked: true, want: healthTripped, state: WorkerSuspect, brk: BreakerHalfOpen},
			step{at: 3 * iv, op: "release", want: healthHalfOpen, state: WorkerSuspect, brk: BreakerTripped},
			step{at: 3 * iv, op: "pick", picked: true, want: healthTripped, state: WorkerSuspect, brk: BreakerHalfOpen},
		)},
		{name: "a failed probe re-trips and restarts the cooldown", trips: 2, steps: tripAt1(
			step{at: 3 * iv, op: "pick", picked: true, want: healthTripped, state: WorkerSuspect, brk: BreakerHalfOpen},
			step{at: 4 * iv, op: "fail", want: healthTripped, state: WorkerSuspect, brk: BreakerTripped},
			step{at: 9 * iv / 2, op: "heard", want: healthTripped, state: WorkerHealthy, brk: BreakerTripped},
			step{at: 6*iv - 1, want: healthTripped, state: WorkerHealthy, brk: BreakerTripped},
			step{at: 6 * iv, want: healthHalfOpen, state: WorkerHealthy, brk: BreakerTripped},
		)},
		{name: "death outranks the breaker", trips: 1, steps: tripAt1(
			step{at: 5 * iv, want: healthDead, state: WorkerDead, brk: BreakerTripped},
		)},
		{name: "draining leaves health alone but pick skips it", steps: []step{
			{at: 0, op: "drain", want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
			{at: 0, op: "pick", picked: false, want: healthOK, state: WorkerHealthy, brk: BreakerClosed},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &workerNode{id: "worker-1", cfg: &cfg, seen: t0}
			f := &fleet{workers: []*workerNode{w}}
			for i, s := range tc.steps {
				now := t0.Add(s.at)
				switch s.op {
				case "heard":
					w.heard(now)
				case "fail":
					w.noteFailure(now)
				case "serve":
					w.noteSuccess(now)
				case "release":
					w.releaseHalfOpen()
				case "drain":
					w.draining = true
				case "pick":
					if got, _ := f.pick("", now); (got == w) != s.picked {
						t.Fatalf("step %d: pick returned the worker = %v, want %v", i, got == w, s.picked)
					}
				}
				w.mu.Lock()
				h := w.healthAt(now)
				w.mu.Unlock()
				info := w.info(now)
				if h != s.want || info.State != s.state || info.Breaker != s.brk {
					t.Fatalf("step %d (%s at %v): health %d state %s breaker %s, want %d %s %s",
						i, s.op, s.at, h, info.State, info.Breaker, s.want, s.state, s.brk)
				}
			}
			if info := w.info(t0); info.Revived != tc.revived || info.BreakerTrips != tc.trips {
				t.Fatalf("revived %d trips %d, want %d %d", info.Revived, info.BreakerTrips, tc.revived, tc.trips)
			}
		})
	}
}

// pick ranks every candidate in one pass: health first (healthy, then
// half-open-ready, then suspect), then not being the worker to avoid, then
// fewest active dispatches, then registration order.
func TestPickRanking(t *testing.T) {
	const iv = time.Second
	cfg := Config{HeartbeatInterval: iv, BreakerThreshold: 1, BreakerCooldown: iv}
	now := time.Unix(1_000_000, 0)
	healthy := func(id string, active int) *workerNode {
		return &workerNode{id: id, cfg: &cfg, seen: now, active: active}
	}
	suspect := func(id string) *workerNode {
		return &workerNode{id: id, cfg: &cfg, seen: now.Add(-3 * iv)}
	}
	halfOpen := func(id string) *workerNode {
		return &workerNode{id: id, cfg: &cfg, seen: now, fails: 1, failedAt: now.Add(-iv)}
	}
	cases := []struct {
		name    string
		workers []*workerNode
		avoid   string
		want    string
	}{
		{"healthy beats half-open and suspect", []*workerNode{suspect("s"), halfOpen("h"), healthy("a", 5)}, "", "a"},
		{"half-open beats suspect", []*workerNode{suspect("s"), halfOpen("h")}, "", "h"},
		{"a healthy avoided worker beats a half-open one", []*workerNode{halfOpen("h"), healthy("a", 0)}, "a", "a"},
		{"avoid outranks load", []*workerNode{healthy("a", 0), healthy("b", 3)}, "a", "b"},
		{"fewest active wins", []*workerNode{healthy("a", 2), healthy("b", 1), healthy("c", 1)}, "", "b"},
		{"suspect is the last resort", []*workerNode{suspect("s")}, "s", "s"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fleet{workers: tc.workers}
			if got, _ := f.pick(tc.avoid, now); got == nil || got.id != tc.want {
				t.Fatalf("picked %+v, want %s", got, tc.want)
			}
		})
	}
}
