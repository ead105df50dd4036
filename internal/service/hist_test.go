package service

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"bpsf/internal/obs"
	"bpsf/internal/sim"
)

// checkAgainstSummarize cross-checks a histogram snapshot against the
// exact order statistics of sim.Summarize on the same sample. The
// histogram contract (power-of-two buckets): each quantile is an upper
// bound on the exact one, within a factor of two — i.e. at most the upper
// edge of the exact value's bucket — and never above the observed max.
// Min, max and avg are tracked exactly.
func checkAgainstSummarize(t *testing.T, name string, ds []time.Duration) {
	t.Helper()
	var h obs.Histogram
	for _, d := range ds {
		h.Observe(d)
	}
	snap := h.Snapshot()
	exact := sim.Summarize(append([]time.Duration(nil), ds...)) // Summarize sorts in place

	if snap.N != exact.N || snap.Min != exact.Min || snap.Max != exact.Max || snap.Avg != exact.Avg {
		t.Errorf("%s: exact fields diverge: hist {n %d min %v max %v avg %v}, Summarize {n %d min %v max %v avg %v}",
			name, snap.N, snap.Min, snap.Max, snap.Avg, exact.N, exact.Min, exact.Max, exact.Avg)
	}
	quantiles := []struct {
		q           string
		hist, exact time.Duration
	}{
		{"p50", snap.P50, exact.P50},
		{"p95", snap.P95, exact.P95},
		{"p99", snap.P99, exact.P99},
		{"p999", snap.P999, exact.P999},
	}
	for _, qq := range quantiles {
		if qq.hist < qq.exact {
			t.Errorf("%s %s: histogram %v undershoots exact %v (must be an upper bound)",
				name, qq.q, qq.hist, qq.exact)
		}
		if qq.hist > snap.Max {
			t.Errorf("%s %s: histogram %v exceeds the observed max %v", name, qq.q, qq.hist, snap.Max)
		}
		if qq.exact == 0 && qq.hist != 0 {
			t.Errorf("%s %s: exact quantile is 0 but histogram reports %v", name, qq.q, qq.hist)
		}
		// within the exact value's power-of-two bucket: upper edge ≤ 2×
		// exact — except in the open-ended clamp bucket (≥ 2⁶¹ns), where
		// the honest upper edge is the observed max
		if b := bits.Len64(uint64(qq.exact)); qq.exact > 0 && b <= 61 && qq.hist > 2*qq.exact {
			t.Errorf("%s %s: histogram %v is more than 2× the exact %v", name, qq.q, qq.hist, qq.exact)
		}
	}
}

// TestHistogramQuantilesVsSummarize cross-checks service.histogram
// against exact sim.Summarize order statistics on the same samples,
// including the degenerate shapes the load path actually produces:
// single observations, all-zero durations, mixed magnitudes, and the
// > 2⁶²ns bucket-62 clamp (where the pre-fix snapshot undershot the
// exact quantile by reporting the clamped bucket edge).
func TestHistogramQuantilesVsSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniform := make([]time.Duration, 2000)
	for i := range uniform {
		uniform[i] = time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
	}
	// span many buckets: magnitudes from ns to minutes
	wide := make([]time.Duration, 1000)
	for i := range wide {
		wide[i] = time.Duration(rng.Int63n(1 << uint(3+rng.Intn(40))))
	}
	huge := []time.Duration{ // bucket-62 clamp: all above 2⁶² ns
		1<<62 + 12345, 1<<62 + 999, 1 << 62, 1<<62 + 7, (1 << 62) * 2003 / 2000,
	}
	cases := map[string][]time.Duration{
		"n=1":         {137 * time.Microsecond},
		"n=1 zero":    {0},
		"all zero":    make([]time.Duration, 64),
		"uniform":     uniform,
		"wide":        wide,
		"clamp >2^62": huge,
		"mixed clamp": append(append([]time.Duration{}, uniform[:50]...), huge...),
		"two":         {time.Nanosecond, time.Hour},
	}
	for name, ds := range cases {
		checkAgainstSummarize(t, name, ds)
	}
}

// TestHistogramClampUpperBound pins the bucket-62 fix directly: with
// every sample above 2⁶²ns the old snapshot returned the clamped bucket
// edge 2⁶²ns, below the exact quantile.
func TestHistogramClampUpperBound(t *testing.T) {
	var h obs.Histogram
	d := time.Duration(1<<62 + 5000)
	for i := 0; i < 10; i++ {
		h.Observe(d)
	}
	snap := h.Snapshot()
	if snap.P99 < d {
		t.Errorf("P99 = %v undershoots every observed sample %v", snap.P99, d)
	}
	if snap.P50 != d || snap.Max != d {
		t.Errorf("degenerate sample: P50 %v, Max %v, want both %v", snap.P50, snap.Max, d)
	}
}
