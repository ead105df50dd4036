package service

import (
	"fmt"
	"io"
	"time"

	"bpsf/internal/obs"
)

// ServerSnapshot is one coherent read of the server's whole telemetry
// plane — what /statusz renders as JSON, /metrics as Prometheus text,
// SIGUSR1 dumps to stderr and msgStats ships over the wire. Each section
// is internally consistent (pool counters and their histogram are read
// under one lock; stage histograms all carry the same request count) but
// sections are snapshotted in sequence, so cross-section sums can differ
// by requests in flight at snapshot time.
type ServerSnapshot struct {
	// Uptime is time since NewServer.
	Uptime time.Duration
	// Runtime is the Go runtime section (goroutines, heap, GC).
	Runtime obs.RuntimeSnapshot
	// SessionsTotal counts accepted connections; SessionsActive is the
	// current live count.
	SessionsTotal  uint64
	SessionsActive int64
	// Pools is every warm pool's report, sorted by pool key.
	Pools []PoolStats
	// Streams is the windowed-streaming section.
	Streams StreamStats
	// Stages carries the batch plane's per-request stage histograms
	// (admit/queue/coalesce/decode/write + total) and its slowest request
	// traces: every stage histogram's N equals the number of decoded
	// (non-shed) requests, which is the reconciliation invariant the e2e
	// tests pin.
	Stages obs.StageSnapshot
	// StreamStages is the commit plane's counterpart (decode/write only;
	// the queueing stages read zero — commits decode inline).
	StreamStages obs.StageSnapshot
	// Backends is the fleet section: per-backend routing counters, present
	// only in snapshots assembled by a gateway (DESIGN.md §12). A single
	// bpsf-serve leaves it empty.
	Backends []BackendStats
}

// BackendStats is one backend's row in a gateway's fleet snapshot.
type BackendStats struct {
	// Name is the stable routing identity (rendezvous hashing keys on it);
	// Addr is the current dial target, which a restart may change.
	Name, Addr string
	// Healthy reflects the last msgStats probe; Draining means the backend
	// is excluded from new-session routing but keeps serving live ones.
	Healthy  bool
	Draining bool
	// Sessions is the live gateway-routed session count; SessionsTotal
	// counts every session ever routed here, including failover arrivals.
	Sessions      int64
	SessionsTotal uint64
	// Requests counts request frames forwarded (batch, sample, stream
	// open/rounds — not stats probes). Failovers counts sessions that left
	// because the backend died; Replayed counts journaled frames re-driven
	// onto this backend to resume such sessions.
	Requests  uint64
	Failovers uint64
	Replayed  uint64
}

// Snapshot assembles the server's full telemetry snapshot.
func (s *Server) Snapshot() ServerSnapshot {
	return ServerSnapshot{
		Uptime:         time.Since(s.start),
		Runtime:        obs.ReadRuntime(),
		SessionsTotal:  s.sessionsTotal.Load(),
		SessionsActive: s.sessionsActive.Load(),
		Pools:          s.Stats(),
		Streams:        s.StreamingStats(),
		Stages:         s.stages.Snapshot(),
		StreamStages:   s.streamStages.Snapshot(),
	}
}

// WriteText renders the snapshot as the one human-readable report:
// bpsf-serve's exit report, -stats interval and SIGUSR1 dump, and
// bpsf-load -stats.
func (snap ServerSnapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "server: up %v  sessions %d (%d active)  goroutines %d  heap %s\n",
		snap.Uptime.Round(time.Millisecond), snap.SessionsTotal, snap.SessionsActive,
		snap.Runtime.Goroutines, fmtBytes(snap.Runtime.HeapAlloc))
	fmt.Fprintf(w, "gc: %d cycles, %v paused total, last %v\n",
		snap.Runtime.NumGC, snap.Runtime.GCPauseTotal, snap.Runtime.LastGCPause)
	for _, bs := range snap.Backends {
		state := "up"
		if !bs.Healthy {
			state = "down"
		}
		if bs.Draining {
			state += ",draining"
		}
		fmt.Fprintf(w, "backend %s (%s): %s sessions=%d total=%d requests=%d failovers=%d replayed=%d\n",
			bs.Name, bs.Addr, state, bs.Sessions, bs.SessionsTotal, bs.Requests, bs.Failovers, bs.Replayed)
	}
	for _, ps := range snap.Pools {
		fmt.Fprintf(w, "pool %s: size=%d admitted=%d decoded=%d shed=%d/%d batches=%d avg_batch=%.2f busy=%v\n",
			ps.Pool, ps.Size, ps.Admitted, ps.Decoded, ps.ShedQueue, ps.ShedDeadline,
			ps.Batches, ps.AvgBatch, ps.Busy.Round(time.Microsecond))
		writeHistLine(w, "  latency", ps.Latency)
	}
	if snap.Streams.Opened > 0 {
		fmt.Fprintf(w, "streams: opened=%d windows=%d\n", snap.Streams.Opened, snap.Streams.Windows)
	}
	if snap.Stages.Total.N > 0 {
		fmt.Fprintf(w, "stages (%d requests):\n", snap.Stages.Total.N)
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			writeHistLine(w, "  "+st.String(), snap.Stages.Stages[st])
		}
		writeHistLine(w, "  total", snap.Stages.Total)
	}
	if snap.StreamStages.Total.N > 0 {
		fmt.Fprintf(w, "stream commit stages (%d commits):\n", snap.StreamStages.Total.N)
		writeHistLine(w, "  decode", snap.StreamStages.Stages[obs.StageDecode])
		writeHistLine(w, "  write", snap.StreamStages.Stages[obs.StageWrite])
	}
	if traces := snap.Stages.Traces; len(traces) > 0 {
		fmt.Fprintf(w, "slowest %d requests:\n", len(traces))
		for _, tr := range traces {
			fmt.Fprintf(w, "  %v  admit=%v queue=%v coalesce=%v decode=%v write=%v\n",
				tr.Total, tr.Stages[obs.StageAdmit], tr.Stages[obs.StageQueue],
				tr.Stages[obs.StageCoalesce], tr.Stages[obs.StageDecode], tr.Stages[obs.StageWrite])
		}
	}
}

func writeHistLine(w io.Writer, label string, h obs.HistSnapshot) {
	if h.N == 0 {
		fmt.Fprintf(w, "%s: (no samples)\n", label)
		return
	}
	fmt.Fprintf(w, "%s: n=%d avg=%v p50=%v p95=%v p99=%v p99.9=%v max=%v\n",
		label, h.N, h.Avg, h.P50, h.P95, h.P99, h.P999, h.Max)
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
