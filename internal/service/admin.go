package service

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"bpsf/internal/obs"
)

// Admin plane (DESIGN.md §10): an optional loopback HTTP listener
// (bpsf-serve -admin) exposing the same ServerSnapshot the wire msgStats
// frame ships, in scrape-friendly forms:
//
//	/metrics       Prometheus text exposition 0.0.4
//	/statusz       the full snapshot as JSON (pools, stages, slow traces)
//	/debug/pprof/  the standard Go profiler endpoints
//
// The admin mux is deliberately hand-rolled (no DefaultServeMux) so
// importing this package never mounts profiler handlers on servers that
// did not ask for them.

// AdminHandler returns the admin-plane HTTP handler; embedders that
// already run an HTTP server can mount it instead of calling ServeAdmin.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeAdmin binds addr and serves the admin plane in the background
// until Drain (which closes the listener). Returns the bound address so
// ":0" callers can discover the port.
func (s *Server) ServeAdmin(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: s.AdminHandler()}
	s.adminMu.Lock()
	s.admin = srv
	s.adminMu.Unlock()
	go srv.Serve(ln)
	return ln.Addr(), nil
}

// closeAdmin stops the admin listener if one is running (Drain path).
func (s *Server) closeAdmin() {
	s.adminMu.Lock()
	srv := s.admin
	s.admin = nil
	s.adminMu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// handleMetrics renders the Prometheus exposition. Pool and stage
// sections come from coherent snapshots (one lock each), not from racy
// per-atomic reads; the registry section carries the session counters
// and any gauges co-registered by the host process.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.Snapshot()
	p := obs.NewPromWriter(w)
	snap.Runtime.WritePrometheus(p, snap.Uptime)
	p.Registry(s.reg)
	for _, ps := range snap.Pools {
		l := `{pool="` + ps.Pool + `"}`
		p.Counter("bpsf_pool_admitted_total"+l, ps.Admitted)
		p.Counter("bpsf_pool_decoded_total"+l, ps.Decoded)
		p.Counter("bpsf_pool_shed_queue_total"+l, ps.ShedQueue)
		p.Counter("bpsf_pool_shed_deadline_total"+l, ps.ShedDeadline)
		p.Counter("bpsf_pool_batches_total"+l, ps.Batches)
		p.Counter("bpsf_pool_coalesced_total"+l, ps.Coalesced)
		p.GaugeFloat("bpsf_pool_busy_seconds"+l, ps.Busy.Seconds())
		p.Gauge("bpsf_pool_size"+l, int64(ps.Size))
		p.Histogram("bpsf_pool_latency_seconds"+l, ps.Latency)
	}
	p.Counter("bpsf_streams_opened_total", snap.Streams.Opened)
	p.Counter("bpsf_stream_windows_total", snap.Streams.Windows)
	p.Histogram("bpsf_stream_commit_seconds", snap.Streams.Latency)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		p.Histogram(`bpsf_stage_seconds{stage="`+st.String()+`"}`, snap.Stages.Stages[st])
	}
	p.Histogram("bpsf_request_seconds", snap.Stages.Total)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		p.Histogram(`bpsf_stream_stage_seconds{stage="`+st.String()+`"}`, snap.StreamStages.Stages[st])
	}
}

// handleStatusz renders the full snapshot as JSON (durations are
// nanosecond integers, matching the wire frame's resolution).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}
