package service

import (
	"context"
	"time"
)

// Seeded exponential backoff with ±50% jitter, shared by every retry loop in
// the service: the fleet's dispatch attempts, worker fleet-join, and the
// client's WithRetry option. Jitter is essential at fleet scale — after a
// dispatcher restart every worker and every polling client retries at once,
// and without jitter they stay phase-locked (thundering herd) forever. The
// jitter source is seeded, not global randomness, so tests and chaos
// schedules replay identically.

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
