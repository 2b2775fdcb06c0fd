package service

import (
	"context"
	"math"
	"time"
)

// Seeded exponential backoff with ±50% jitter, shared by every retry loop in
// the service: the client's calls and Wait's reconnects, the fleet's
// dispatch attempts, and worker fleet-join. Jitter is essential at fleet
// scale — after a dispatcher restart every worker and every polling client
// retries at once, and without jitter they stay phase-locked (thundering
// herd) forever. The jitter source is seeded, not global randomness, so
// tests and chaos schedules replay identically.

// RetryPolicy bounds one retry loop. The zero policy (or Attempts <= 1)
// disables retrying entirely — every call is single-shot.
type RetryPolicy struct {
	// Attempts is the total number of tries, first attempt included. 5
	// means up to 4 retries.
	Attempts int
	// Base and Max bound the exponential backoff between attempts
	// (defaults 100ms and 5s). Each delay is jittered ±50%.
	Base time.Duration
	Max  time.Duration
}

// The per-layer policies. Every retry in the service runs under one of
// these, or under a caller's own WithRetry policy.
var (
	// CLIRetry is the client policy tssim and tsbench -remote run under:
	// it rides out a daemon restart or a draining window of about 16s.
	CLIRetry = RetryPolicy{Attempts: 8, Base: 200 * time.Millisecond, Max: 5 * time.Second}
	// joinRetry paces JoinFleet, which retries until its ctx ends.
	joinRetry = RetryPolicy{Attempts: math.MaxInt, Base: time.Second, Max: 30 * time.Second}
	// dispatchRetry is Config.DispatchRetry's default: 4 retries per job.
	dispatchRetry = RetryPolicy{Attempts: 5, Base: 100 * time.Millisecond, Max: 5 * time.Second}
)

// do runs fn under the policy: up to Attempts tries, each retry after the
// next delay of a backoff seeded from seed, for as long as retryable accepts
// fn's error. It returns nil on success, else fn's last error — also when
// ctx ends, because a caller that gave up is never retried.
func (p RetryPolicy) do(ctx context.Context, seed string, retryable func(error) bool, fn func() error) error {
	bo := p.delays(seed)
	for try := 1; ; try++ {
		err := fn()
		if err == nil || try >= p.Attempts || ctx.Err() != nil || !retryable(err) || !sleepCtx(ctx, bo.next()) {
			return err
		}
	}
}

// delays returns the policy's backoff between tries, its jitter stream
// seeded from seed.
func (p RetryPolicy) delays(seed string) *backoff {
	return newBackoff(p.Base, p.Max, seedFromString(seed))
}

type backoff struct {
	base, max time.Duration
	attempt   uint
	state     uint64
}

// newBackoff returns a backoff whose nth delay is (base<<n) capped at max,
// then jittered uniformly into [d/2, 3d/2). Non-positive base/max get
// service-wide defaults (100ms / 5s).
func newBackoff(base, max time.Duration, seed int64) *backoff {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	if max < base {
		max = base
	}
	return &backoff{base: base, max: max, state: uint64(seed)}
}

// mix is the SplitMix64 step, advancing the jitter stream one draw.
func (b *backoff) mix() uint64 {
	b.state += 0x9e3779b97f4a7c15
	x := b.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next returns the next jittered delay and advances the attempt counter.
func (b *backoff) next() time.Duration {
	d := b.max
	if b.attempt < 32 {
		if shifted := b.base << b.attempt; shifted > 0 && shifted < b.max {
			d = shifted
		}
	}
	b.attempt++
	// ±50%: d/2 plus a uniform draw from [0, d).
	return d/2 + time.Duration(b.mix()%uint64(d))
}

// seedFromString folds a string into a backoff seed (FNV-1a), giving each
// worker/client a distinct but deterministic jitter stream.
func seedFromString(s string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h)
}

// sleepCtx sleeps for d or until ctx ends, reporting whether the full sleep
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
