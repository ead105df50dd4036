package service

import "bpsf/internal/obs"

// The power-of-two latency histogram grew up here and was promoted to
// internal/obs (PR 7) so Prometheus exposition and the wire msgStats
// frame share one snapshot-consistent type with exported bucket counts. The aliases keep the service API — PoolStats.Latency,
// StreamStats.Latency — and the call sites unchanged.
type (
	histogram = obs.Histogram

	// HistogramSnapshot is a point-in-time read of one latency histogram
	// (now obs.HistSnapshot: quantiles are power-of-two upper bounds, and
	// Buckets carries the raw counts).
	HistogramSnapshot = obs.HistSnapshot
)
