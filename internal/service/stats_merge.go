package service

import "bpsf/internal/obs"

// Fleet-wide snapshot aggregation (DESIGN.md §12). The gateway probes
// each backend with msgStats and folds the per-process ServerSnapshots
// into one fleet view: counters add, stage histograms merge bucket-wise
// (obs.MergeHist), and pool rows keep their identity under a
// "backend|pool" name so per-backend pool behaviour stays visible in the
// merged dump.

// NamedSnapshot pairs a backend's routing name with its last snapshot.
type NamedSnapshot struct {
	Name string
	Snap ServerSnapshot
}

// MergeSnapshots folds per-backend snapshots into a fleet-wide one.
// Uptime is the oldest backend's (the fleet has been up at least that
// long); runtime gauges sum (fleet capacity and footprint) except
// LastGCPause, which takes the worst backend; session and stream
// counters sum; stage histograms merge exactly (bucket counts add, so
// the merged quantiles carry the same factor-of-two accuracy as any
// single backend's) and their traces interleave slowest first, capped at
// one server's retention (obs.MergeStages); Backends
// sections concatenate in input order. An empty input yields the zero
// snapshot.
func MergeSnapshots(parts []NamedSnapshot) ServerSnapshot {
	var m ServerSnapshot
	for _, part := range parts {
		s := part.Snap
		if s.Uptime > m.Uptime {
			m.Uptime = s.Uptime
		}
		m.Runtime.Goroutines += s.Runtime.Goroutines
		m.Runtime.GoMaxProcs += s.Runtime.GoMaxProcs
		m.Runtime.NumCPU += s.Runtime.NumCPU
		m.Runtime.HeapAlloc += s.Runtime.HeapAlloc
		m.Runtime.HeapSys += s.Runtime.HeapSys
		m.Runtime.TotalAlloc += s.Runtime.TotalAlloc
		m.Runtime.Mallocs += s.Runtime.Mallocs
		m.Runtime.NumGC += s.Runtime.NumGC
		m.Runtime.GCPauseTotal += s.Runtime.GCPauseTotal
		if s.Runtime.LastGCPause > m.Runtime.LastGCPause {
			m.Runtime.LastGCPause = s.Runtime.LastGCPause
		}
		m.SessionsTotal += s.SessionsTotal
		m.SessionsActive += s.SessionsActive
		for _, ps := range s.Pools {
			ps.Pool = part.Name + "|" + ps.Pool
			m.Pools = append(m.Pools, ps)
		}
		m.Streams.Opened += s.Streams.Opened
		m.Streams.Windows += s.Streams.Windows
		m.Stages = obs.MergeStages(m.Stages, s.Stages)
		m.StreamStages = obs.MergeStages(m.StreamStages, s.StreamStages)
		m.Backends = append(m.Backends, s.Backends...)
	}
	return m
}
