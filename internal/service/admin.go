package service

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"bpsf/internal/obs"
)

// Admin is the admin plane (DESIGN.md §10) shared by Server and the
// fleet Gateway, both of which embed it: an optional loopback HTTP
// listener (-admin) exposing the same ServerSnapshot the wire msgStats
// frame ships, in scrape-friendly forms:
//
//	/metrics       Prometheus text exposition 0.0.4
//	/statusz       the full snapshot as JSON (pools, stages, slow traces)
//	/debug/pprof/  the standard Go profiler endpoints
//
// The mux is deliberately hand-rolled (no DefaultServeMux) so importing
// this package never mounts profiler handlers on servers that did not
// ask for them.
type Admin struct {
	snapshot func() ServerSnapshot
	// local writes the families only the owning process has, after the
	// shared snapshot families.
	local func(p *obs.PromWriter)

	mu  sync.Mutex
	srv *http.Server
}

// NewAdmin builds the admin plane over a snapshot source and a writer of
// the owner's process-local metric families.
func NewAdmin(snapshot func() ServerSnapshot, local func(p *obs.PromWriter)) *Admin {
	return &Admin{snapshot: snapshot, local: local}
}

// AdminHandler returns the admin-plane HTTP handler; embedders that
// already run an HTTP server can mount it instead of calling ServeAdmin.
func (a *Admin) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/statusz", a.handleStatusz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeAdmin binds addr and serves the admin plane in the background
// until CloseAdmin (which the owner's Drain calls). Returns the bound
// address so ":0" callers can discover the port.
func (a *Admin) ServeAdmin(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: a.AdminHandler()}
	a.mu.Lock()
	a.srv = srv
	a.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr(), nil
}

// CloseAdmin stops the admin listener if one is running.
func (a *Admin) CloseAdmin() {
	a.mu.Lock()
	srv := a.srv
	a.srv = nil
	a.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// handleMetrics renders the Prometheus exposition: the snapshot's
// families, then the process-local ones.
func (a *Admin) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)
	a.snapshot().WritePrometheus(p)
	a.local(p)
}

// handleStatusz renders the full snapshot as JSON (durations are
// nanosecond integers). msgStats carries the same document, compact.
func (a *Admin) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(a.snapshot())
}

// WritePrometheus renders every section of the snapshot family by
// family — each family's labelled series (one per pool, stage or
// backend) form one contiguous group, as the text format requires.
func (snap ServerSnapshot) WritePrometheus(p *obs.PromWriter) {
	snap.Runtime.WritePrometheus(p, snap.Uptime)
	p.Counter("bpsf_sessions_total", snap.SessionsTotal)
	p.Gauge("bpsf_sessions_active", snap.SessionsActive)

	pool := func(name string, ps PoolStats) string { return obs.Label(name, "pool", ps.Pool) }
	for _, f := range []struct {
		name string
		v    func(PoolStats) uint64
	}{
		{"bpsf_pool_admitted_total", func(ps PoolStats) uint64 { return ps.Admitted }},
		{"bpsf_pool_decoded_total", func(ps PoolStats) uint64 { return ps.Decoded }},
		{"bpsf_pool_shed_queue_total", func(ps PoolStats) uint64 { return ps.ShedQueue }},
		{"bpsf_pool_shed_deadline_total", func(ps PoolStats) uint64 { return ps.ShedDeadline }},
		{"bpsf_pool_batches_total", func(ps PoolStats) uint64 { return ps.Batches }},
		{"bpsf_pool_coalesced_total", func(ps PoolStats) uint64 { return ps.Coalesced }},
	} {
		for _, ps := range snap.Pools {
			p.Counter(pool(f.name, ps), f.v(ps))
		}
	}
	for _, ps := range snap.Pools {
		p.GaugeFloat(pool("bpsf_pool_busy_seconds", ps), ps.Busy.Seconds())
	}
	for _, ps := range snap.Pools {
		p.Gauge(pool("bpsf_pool_size", ps), int64(ps.Size))
	}
	for _, ps := range snap.Pools {
		p.Histogram(pool("bpsf_pool_latency_seconds", ps), ps.Latency)
	}

	p.Counter("bpsf_streams_opened_total", snap.Streams.Opened)
	p.Counter("bpsf_stream_windows_total", snap.Streams.Windows)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		p.Histogram(obs.Label("bpsf_stage_seconds", "stage", st.String()), snap.Stages.Stages[st])
	}
	p.Histogram("bpsf_request_seconds", snap.Stages.Total)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		p.Histogram(obs.Label("bpsf_stream_stage_seconds", "stage", st.String()), snap.StreamStages.Stages[st])
	}

	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	backend := func(name string, bs BackendStats) string { return obs.Label(name, "backend", bs.Name) }
	for _, f := range []struct {
		name string
		v    func(BackendStats) int64
	}{
		{"bpsf_backend_up", func(bs BackendStats) int64 { return flag(bs.Healthy) }},
		{"bpsf_backend_draining", func(bs BackendStats) int64 { return flag(bs.Draining) }},
		{"bpsf_backend_sessions", func(bs BackendStats) int64 { return bs.Sessions }},
	} {
		for _, bs := range snap.Backends {
			p.Gauge(backend(f.name, bs), f.v(bs))
		}
	}
	for _, f := range []struct {
		name string
		v    func(BackendStats) uint64
	}{
		{"bpsf_backend_sessions_total", func(bs BackendStats) uint64 { return bs.SessionsTotal }},
		{"bpsf_backend_requests_total", func(bs BackendStats) uint64 { return bs.Requests }},
		{"bpsf_backend_failovers_total", func(bs BackendStats) uint64 { return bs.Failovers }},
		{"bpsf_backend_replayed_frames_total", func(bs BackendStats) uint64 { return bs.Replayed }},
	} {
		for _, bs := range snap.Backends {
			p.Counter(backend(f.name, bs), f.v(bs))
		}
	}
}
