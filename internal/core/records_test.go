package core

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"tasksuperscalar/internal/stats"
)

// TestRecordSizes pins the host bytes of the per-window records, which set
// the simulator's memory per in-flight task: a TRS operand (the paper's
// main block holds 4 in 128 B), a TRS task, an OVT version and the payload
// of an ORT way (the paper's entries are 32 B; the way's 8 B tag sits in
// the set's tag block). It also pins each module's message type, which
// its server queues by value: the host memory per queued message.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"opRec", unsafe.Sizeof(opRec{}), 32},
		{"taskRec", unsafe.Sizeof(taskRec{}), 200},
		{"verRec", unsafe.Sizeof(verRec{}), 88},
		{"ortEntry", unsafe.Sizeof(ortEntry{}), 40},
		{"trsMsg", unsafe.Sizeof(trsMsg{}), 64},
		{"ortMsg", unsafe.Sizeof(ortMsg{}), 40},
		{"ovtMsg", unsafe.Sizeof(ovtMsg{}), 48},
		{"gwMsg", unsafe.Sizeof(gwMsg{}), 24},
	} {
		t.Logf("%s: %d B", c.name, c.size)
		if c.size > c.max {
			t.Errorf("%s is %d B, want at most %d B", c.name, c.size, c.max)
		}
	}
}

// TestChainHistogramMatchesSample checks that the chain statistics computed
// from a histogram of chain lengths equal, bit for bit, what stats.Sample
// reports for the same lengths.
func TestChainHistogramMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		maxLen := 1 + rng.Intn(40)
		var hist []uint64
		var sample stats.Sample
		for i := 0; i < n; i++ {
			l := rng.Intn(maxLen + 1)
			if trial%2 == 0 {
				l = rng.Intn(4) // mostly short chains, as measured
			}
			for l >= len(hist) {
				hist = append(hist, 0)
			}
			hist[l]++
			sample.Add(float64(l))
		}
		atMost2, p95, longest := chainStats(hist)
		if math.Float64bits(atMost2) != math.Float64bits(sample.FracAtMost(2)) ||
			math.Float64bits(p95) != math.Float64bits(sample.Percentile(95)) ||
			float64(longest) != sample.Max() {
			t.Fatalf("trial %d (%d lengths): histogram gives %v/%v/%d, sample %v/%v/%v",
				trial, n, atMost2, p95, longest, sample.FracAtMost(2), sample.Percentile(95), sample.Max())
		}
	}
	if a, p, l := chainStats(nil); a != 0 || p != 0 || l != 0 {
		t.Fatalf("empty histogram gives %v/%v/%d, want zeros", a, p, l)
	}
}
