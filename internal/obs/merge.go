package obs

import "time"

// Fleet aggregation helpers (DESIGN.md §12). A HistSnapshot carries its
// raw power-of-two bucket counts precisely so that snapshots taken on
// different processes can be summed: quantiles cannot be averaged, but
// bucket counts add, and the merged quantiles recompute from the merged
// buckets with the same factor-of-two accuracy as a single histogram.

// MergeHist returns the histogram sum of a and b: bucket-wise counts,
// exact min/max/sum/n, and quantiles recomputed from the merged buckets.
// Either side may be empty (N == 0); merging with an empty snapshot is
// the identity.
func MergeHist(a, b HistSnapshot) HistSnapshot {
	if a.N == 0 {
		return b
	}
	if b.N == 0 {
		return a
	}
	m := HistSnapshot{
		N:   a.N + b.N,
		Min: a.Min,
		Max: a.Max,
		Sum: a.Sum + b.Sum,
	}
	if b.Min < m.Min {
		m.Min = b.Min
	}
	if b.Max > m.Max {
		m.Max = b.Max
	}
	for i := range m.Buckets {
		m.Buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	m.Avg = m.Sum / time.Duration(m.N)
	m.setQuantiles()
	return m
}

// setQuantiles fills the percentile fields from the bucket counts — the
// one quantile rule for single (HistData.Snapshot) and merged (MergeHist)
// histograms alike.
func (s *HistSnapshot) setQuantiles() {
	s.P50 = bucketQuantile(s.Buckets, uint64(s.N), s.Max, 0.5)
	s.P95 = bucketQuantile(s.Buckets, uint64(s.N), s.Max, 0.95)
	s.P99 = bucketQuantile(s.Buckets, uint64(s.N), s.Max, 0.99)
	s.P999 = bucketQuantile(s.Buckets, uint64(s.N), s.Max, 0.999)
}

// bucketQuantile reports quantile q from power-of-two bucket counts: the
// upper edge of the bucket holding the rank, clamped to the observed max
// (the top bucket is open-ended — BucketOf clamps everything ≥ 2⁶¹ns
// into it — so its edge may undershoot the samples it holds; the
// observed maximum is the honest bound).
func bucketQuantile(buckets [NumBuckets]uint64, n uint64, max time.Duration, q float64) time.Duration {
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n-1))
	var cum uint64
	for b, c := range buckets {
		cum += c
		if cum > rank {
			if b == 0 {
				return 0
			}
			upper := time.Duration(uint64(1) << uint(b))
			if b == NumBuckets-1 || upper > max {
				upper = max
			}
			return upper
		}
	}
	return max
}

// MergeStages merges two stage snapshots histogram by histogram; their
// traces interleave slowest first, keeping as many as one StageSet does.
func MergeStages(a, b StageSnapshot) StageSnapshot {
	var m StageSnapshot
	for st := 0; st < int(NumStages); st++ {
		m.Stages[st] = MergeHist(a.Stages[st], b.Stages[st])
	}
	m.Total = MergeHist(a.Total, b.Total)
	if n := len(a.Traces) + len(b.Traces); n > 0 {
		m.Traces = append(append(make([]Trace, 0, n), a.Traces...), b.Traces...)
		sortTraces(m.Traces)
		if len(m.Traces) > traceSlots {
			m.Traces = m.Traces[:traceSlots]
		}
	}
	return m
}
