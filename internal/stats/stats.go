// Package stats provides the small statistics toolkit used by the simulator:
// streaming summaries (min/median/avg/percentiles), fixed-bucket histograms,
// and helpers to format Table-I-style rows.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates observations for summary statistics. The zero value is
// ready to use. Values are retained, so percentiles are exact.
type Sample struct {
	vals   []float64
	sum    float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.vals) }

// Sum returns the sum of observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Min returns the smallest observation, or 0 with none.
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[0]
}

// Max returns the largest observation, or 0 with none.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Percentile returns the p-th percentile (0–100) using nearest-rank
// interpolation. With no observations it returns 0.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := p / 100 * float64(len(s.vals)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	mean := s.Mean()
	var ss float64
	for _, v := range s.vals {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// FracAtMost returns the fraction of observations <= limit.
func (s *Sample) FracAtMost(limit float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	idx := sort.SearchFloat64s(s.vals, math.Nextafter(limit, math.Inf(1)))
	return float64(idx) / float64(len(s.vals))
}

// FracAbove returns the fraction of observations > limit.
func (s *Sample) FracAbove(limit float64) float64 { return 1 - s.FracAtMost(limit) }

// Histogram counts observations into power-of-two buckets: bucket i counts
// values v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1).
type Histogram struct {
	buckets []uint64
	n       uint64
}

// Add records an observation.
func (h *Histogram) Add(v uint64) {
	b := 0
	for b < 63 && (uint64(1)<<b) < v {
		b++
	}
	for len(h.buckets) <= b {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[b]++
	h.n++
}

// N returns the total count.
func (h *Histogram) N() uint64 { return h.n }

// Buckets returns a copy of the bucket counts.
func (h *Histogram) Buckets() []uint64 { return append([]uint64(nil), h.buckets...) }

// String renders the histogram for logs.
func (h *Histogram) String() string {
	out := ""
	lo := uint64(0)
	hi := uint64(1)
	for i, c := range h.buckets {
		if c > 0 {
			out += fmt.Sprintf("(%d,%d]:%d ", lo, hi, c)
		}
		lo = hi
		hi *= 2
		_ = i
	}
	return out
}

// Counter is a running max/total tracker for occupancy-style metrics
// (e.g. task-window size over time).
type Counter struct {
	cur, max int64
	// time-weighted accumulation
	lastAt   uint64
	weighted float64
}

// Inc adds delta at simulated time now, updating the time-weighted average.
func (c *Counter) Inc(now uint64, delta int64) {
	c.weighted += float64(c.cur) * float64(now-c.lastAt)
	c.lastAt = now
	c.cur += delta
	if c.cur > c.max {
		c.max = c.cur
	}
}

// Cur returns the current value.
func (c *Counter) Cur() int64 { return c.cur }

// Max returns the high-water mark.
func (c *Counter) Max() int64 { return c.max }

// TimeAvg returns the time-weighted average up to cycle end.
func (c *Counter) TimeAvg(end uint64) float64 {
	w := c.weighted + float64(c.cur)*float64(end-c.lastAt)
	if end == 0 {
		return 0
	}
	return w / float64(end)
}
