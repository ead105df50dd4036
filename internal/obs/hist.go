package obs

import (
	"math/bits"
	"sync"
	"time"
)

// NumBuckets is the fixed bucket count of the power-of-two histogram:
// bucket 0 holds exact zeros, bucket b holds [2^(b-1), 2^b) nanoseconds,
// and bucket 62 is open-ended (everything ≥ 2⁶¹ns clamps into it so the
// edge stays representable as a Duration).
const NumBuckets = 63

// HistData accumulates durations in power-of-two nanosecond buckets:
// constant memory at any traffic volume, quantiles accurate to a factor
// of two (a bucket's upper bound is reported). Exact min/max/sum are
// tracked alongside. HistData carries no lock — the caller provides the
// synchronization, which is what lets a pool snapshot its counters and
// its histogram under one mutex coherently. Use Histogram for the
// self-locking variant. Methods are safe on a nil receiver.
type HistData struct {
	counts [NumBuckets]uint64
	n      uint64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// HistSnapshot is a point-in-time read of one histogram, including the
// raw bucket counts (Prometheus exposition and the snapshot's JSON
// document, which /statusz and msgStats share, carry them; quantiles
// alone cannot be aggregated across a fleet).
// Percentiles are upper bounds of their power-of-two bucket. The struct
// is comparable, so snapshots can be diffed with ==.
type HistSnapshot struct {
	N                   int
	Min, Max, Avg, Sum  time.Duration
	P50, P95, P99, P999 time.Duration
	Buckets             [NumBuckets]uint64
}

// BucketOf returns the bucket index of d: 0 for 0ns, b for
// [2^(b-1), 2^b)ns, clamped to the open-ended top bucket.
func BucketOf(d time.Duration) int {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	b := bits.Len64(ns) // 0 for 0ns, k for [2^(k-1), 2^k)
	if b > NumBuckets-1 {
		b = NumBuckets - 1 // keep 1<<b representable as a Duration
	}
	return b
}

// BucketUpper returns the inclusive upper edge of bucket b in
// nanoseconds (2^b − 1); the top bucket is open-ended and callers should
// render it as +Inf.
func BucketUpper(b int) uint64 {
	if b <= 0 {
		return 0
	}
	return 1<<uint(b) - 1
}

// Observe records one duration. Not safe for concurrent use — wrap in
// Histogram or synchronize externally.
func (h *HistData) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.counts[BucketOf(d)]++
	h.n++
	h.sum += d
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Snapshot reads the histogram (same synchronization requirement as
// Observe).
func (h *HistData) Snapshot() HistSnapshot {
	if h == nil || h.n == 0 {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		N:       int(h.n),
		Min:     h.min,
		Max:     h.max,
		Sum:     h.sum,
		Avg:     h.sum / time.Duration(h.n),
		Buckets: h.counts,
	}
	s.setQuantiles()
	return s
}

// Histogram is the self-locking HistData: Observe and Snapshot are safe
// for concurrent use. The zero value is ready.
type Histogram struct {
	mu sync.Mutex
	d  HistData
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.d.Observe(d)
	h.mu.Unlock()
}

// Snapshot returns a consistent point-in-time read.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.d.Snapshot()
}
