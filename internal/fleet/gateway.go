package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bpsf/internal/obs"
	"bpsf/internal/service"
)

// BackendAddr names one backend for a gateway. Name is the stable
// routing identity (rendezvous hashing keys on it, and it survives
// restarts); Addr is the current dial target, mutable via
// SetBackendAddr.
type BackendAddr struct {
	Name, Addr string
}

// GatewayOptions configures a Gateway. Zero values select the defaults
// noted on each field.
type GatewayOptions struct {
	// Backends is the fixed backend registry (at least one).
	Backends []BackendAddr
	// MaxSessionsPerBackend bounds the gateway's connection pool per
	// backend; a full backend is skipped in the rendezvous ranking
	// (default 64).
	MaxSessionsPerBackend int
	// MaxJournalBytes caps one session's replay journal. A session that
	// outgrows it keeps working but becomes non-replayable: if its backend
	// then dies the session is killed instead of failed over (default
	// 8 MiB).
	MaxJournalBytes int
	// ProbeInterval paces the msgStats health prober (default 500ms;
	// negative disables the background loop — tests and the orchestrator
	// then call ProbeOnce themselves).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip, and each wait in a
	// backend handshake (default 2s). A backend whose ack is later than
	// that is probed: one that answers is building the session's pool,
	// and the wait goes on; one that does not is marked down, and the
	// session goes on down the ranking.
	ProbeTimeout time.Duration
	// IdleTimeout bounds the wait for the next CLIENT frame; a session
	// idle past it is shut down cleanly (0 = never). It applies only to
	// the client hop — backend Conns are dialed and carry no deadline, so
	// a quiet backend link is never mistaken for backend death (which
	// would trip a spurious failover).
	IdleTimeout time.Duration
	// WriteTimeout bounds each client-hop frame write (0 = never).
	WriteTimeout time.Duration
	// Logf receives gateway diagnostics (nil = silent).
	Logf func(format string, args ...interface{})
}

func (o GatewayOptions) withDefaults() GatewayOptions {
	if o.MaxSessionsPerBackend <= 0 {
		o.MaxSessionsPerBackend = 64
	}
	if o.MaxJournalBytes <= 0 {
		o.MaxJournalBytes = 8 << 20
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	return o
}

// backend is the gateway's per-backend state: routing eligibility,
// counters, the persistent probe session and its last snapshot.
type backend struct {
	name string

	// probeMu serializes probes: the prober's and those of sessions
	// waiting on this backend's handshake
	probeMu sync.Mutex

	mu       sync.Mutex
	addr     string
	healthy  bool
	draining bool
	probe    *service.Client
	lastSnap service.ServerSnapshot
	haveSnap bool

	sessions      atomic.Int64
	sessionsTotal atomic.Uint64
	requests      atomic.Uint64
	failovers     atomic.Uint64
	replayed      atomic.Uint64
}

func (b *backend) getAddr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addr
}

func (b *backend) stats() service.BackendStats {
	b.mu.Lock()
	healthy, draining, addr := b.healthy, b.draining, b.addr
	b.mu.Unlock()
	return service.BackendStats{
		Name:          b.name,
		Addr:          addr,
		Healthy:       healthy,
		Draining:      draining,
		Sessions:      b.sessions.Load(),
		SessionsTotal: b.sessionsTotal.Load(),
		Requests:      b.requests.Load(),
		Failovers:     b.failovers.Load(),
		Replayed:      b.replayed.Load(),
	}
}

// Gateway is the fleet front door: one listener speaking the bpsf wire
// protocol, proxying each accepted session onto a rendezvous-chosen
// backend with journal-and-replay failover.
type Gateway struct {
	opts  GatewayOptions
	start time.Time

	backends []*backend
	byName   map[string]*backend

	// Acceptor binds the listener and runs and drains the client
	// sessions; its Drain is the gateway's (see drained).
	*service.Acceptor

	sessionsTotal  atomic.Uint64
	sessionsActive atomic.Int64
	failoversTotal atomic.Uint64
	replaysOK      atomic.Uint64
	sessionsLost   atomic.Uint64

	probeStop chan struct{}
	probeDone chan struct{}

	// Admin serves the fleet snapshot on the shared admin plane
	// (ServeAdmin), with the gateway-only families beside it.
	*service.Admin
}

// NewGateway builds a gateway over the given backend registry. Backends
// start healthy-optimistic: routing discovers death on the first failed
// dial, and the prober (if enabled) keeps the view fresh thereafter.
func NewGateway(opts GatewayOptions) (*Gateway, error) {
	opts = opts.withDefaults()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("fleet: gateway needs at least one backend")
	}
	g := &Gateway{
		opts:   opts,
		start:  time.Now(),
		byName: make(map[string]*backend),
	}
	g.Acceptor = service.NewAcceptor(g.session, g.drained, opts.Logf)
	g.Admin = service.NewAdmin(g.Snapshot, g.writeLocalMetrics)
	for _, ba := range opts.Backends {
		if ba.Name == "" || ba.Addr == "" {
			return nil, fmt.Errorf("fleet: backend needs a name and an address, got %+v", ba)
		}
		if g.byName[ba.Name] != nil {
			return nil, fmt.Errorf("fleet: duplicate backend name %q", ba.Name)
		}
		be := &backend{name: ba.Name, addr: ba.Addr, healthy: true}
		g.backends = append(g.backends, be)
		g.byName[ba.Name] = be
	}
	if opts.ProbeInterval > 0 {
		g.probeStop = make(chan struct{})
		g.probeDone = make(chan struct{})
		go g.probeLoop()
	}
	return g, nil
}

// drained is the gateway's tail of Drain, run once every client session
// has ended: it stops the prober, then a final probe round (each dial,
// handshake and stats round trip bounded by ProbeTimeout) refreshes every
// backend's snapshot, so Snapshot after Drain reports the backends' final
// counts; then the probe clients and the admin plane close.
func (g *Gateway) drained() {
	if g.probeStop != nil {
		close(g.probeStop)
		<-g.probeDone
	}
	// one last probe, so the drain report counts every decode the ended
	// sessions asked for rather than the last periodic probe's view
	g.ProbeOnce()
	for _, be := range g.backends {
		be.mu.Lock()
		if be.probe != nil {
			be.probe.Close()
			be.probe = nil
		}
		be.mu.Unlock()
	}
	g.CloseAdmin()
}

// SetBackendAddr repoints a backend (a restart moved it) and marks it
// routable again.
func (g *Gateway) SetBackendAddr(name, addr string) error {
	be := g.byName[name]
	if be == nil {
		return fmt.Errorf("fleet: unknown backend %q", name)
	}
	be.mu.Lock()
	if be.probe != nil {
		be.probe.Close()
		be.probe = nil
	}
	be.addr = addr
	be.healthy = true
	be.mu.Unlock()
	return nil
}

// SetDraining toggles drain-aware rebalancing for one backend: a
// draining backend keeps its live sessions but receives no new ones and
// no failovers.
func (g *Gateway) SetDraining(name string, draining bool) error {
	be := g.byName[name]
	if be == nil {
		return fmt.Errorf("fleet: unknown backend %q", name)
	}
	be.mu.Lock()
	be.draining = draining
	be.mu.Unlock()
	return nil
}

// markDown records that dialing or talking to a backend failed; the
// prober flips it back once msgStats answers again.
func (g *Gateway) markDown(be *backend, cause error) {
	be.mu.Lock()
	was := be.healthy
	be.healthy = false
	if be.probe != nil {
		be.probe.Close()
		be.probe = nil
	}
	be.mu.Unlock()
	if was {
		g.opts.Logf("backend %s down: %v", be.name, cause)
	}
}

// eligible reports whether a backend may receive a new (or failed-over)
// session right now.
func (g *Gateway) eligible(be *backend) bool {
	be.mu.Lock()
	ok := be.healthy && !be.draining
	be.mu.Unlock()
	return ok && be.sessions.Load() < int64(g.opts.MaxSessionsPerBackend)
}

// rank returns the session key's full rendezvous ranking over the
// registry; callers walk it and take the first eligible backend.
func (g *Gateway) rank(key string) []*backend {
	names := make([]string, len(g.backends))
	for i, be := range g.backends {
		names[i] = be.name
	}
	ranked := Rank(names, key)
	out := make([]*backend, len(ranked))
	for i, n := range ranked {
		out[i] = g.byName[n]
	}
	return out
}

// ---- health probes ----

// probeHello is the tiny session the health prober keeps open per
// backend: the smallest catalog code under the cheapest decoder, so the
// probe pool costs one warm UF decoder and shows up in backend stats
// under a recognizable key.
func probeHello() service.Hello {
	return service.Hello{Code: "rsurf3", P: 0.001, Spec: service.Spec{Kind: "uf"}}
}

func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	t := time.NewTicker(g.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-t.C:
			g.ProbeOnce()
		}
	}
}

// ProbeOnce health-checks every backend in parallel and returns when all
// probes resolve: each backend accepts a probe session and answers a
// msgStats round trip, each within ProbeTimeout (refreshing its cached
// snapshot), or is marked down. The background loop calls this every
// ProbeInterval; tests and the orchestrator call it directly for a
// deterministic view.
func (g *Gateway) ProbeOnce() {
	var wg sync.WaitGroup
	for _, be := range g.backends {
		wg.Add(1)
		go func(be *backend) {
			defer wg.Done()
			g.probe(be)
		}(be)
	}
	wg.Wait()
}

// probe runs one health check and reports whether the backend passed.
func (g *Gateway) probe(be *backend) bool {
	be.probeMu.Lock()
	defer be.probeMu.Unlock()
	be.mu.Lock()
	c := be.probe
	addr := be.addr
	be.mu.Unlock()
	if c == nil {
		var err error
		c, err = service.DialTimeout(addr, probeHello(), g.opts.ProbeTimeout)
		if err != nil {
			g.markDown(be, fmt.Errorf("probe dial: %w", err))
			return false
		}
		be.mu.Lock()
		be.probe = c
		be.mu.Unlock()
	}
	snap, err := statsWithTimeout(c, g.opts.ProbeTimeout)
	if err != nil {
		g.markDown(be, fmt.Errorf("probe stats: %w", err))
		return false
	}
	be.mu.Lock()
	if !be.healthy {
		g.opts.Logf("backend %s healthy again", be.name)
	}
	be.healthy = true
	be.lastSnap = snap
	be.haveSnap = true
	be.mu.Unlock()
	return true
}

// statsWithTimeout bounds one probe round trip: on timeout the client is
// closed, which unblocks the in-flight Stats call.
func statsWithTimeout(c *service.Client, d time.Duration) (service.ServerSnapshot, error) {
	type result struct {
		snap service.ServerSnapshot
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		snap, err := c.Stats()
		ch <- result{snap, err}
	}()
	select {
	case r := <-ch:
		return r.snap, r.err
	case <-time.After(d):
		c.Close()
		<-ch
		return service.ServerSnapshot{}, fmt.Errorf("fleet: probe timed out after %v", d)
	}
}

// ---- fleet stats ----

// BackendStats returns the per-backend routing counters, in registry
// order.
func (g *Gateway) BackendStats() []service.BackendStats {
	out := make([]service.BackendStats, len(g.backends))
	for i, be := range g.backends {
		out[i] = be.stats()
	}
	return out
}

// Snapshot assembles the fleet-wide snapshot: every backend's last
// probed ServerSnapshot merged (pool rows keyed "backend|pool"), plus
// the gateway's Backends section. Uptime is the gateway's own.
func (g *Gateway) Snapshot() service.ServerSnapshot {
	return g.snapshotWith("", service.ServerSnapshot{})
}

// snapshotWith merges the fleet view, substituting an inline
// just-received snapshot for the named backend — the intercepted-stats
// path uses it so a session's own backend is exactly as fresh as a
// direct msgStats would be (the reply still reflects everything the
// session flushed before asking).
func (g *Gateway) snapshotWith(inlineName string, inline service.ServerSnapshot) service.ServerSnapshot {
	var parts []service.NamedSnapshot
	for _, be := range g.backends {
		if be.name == inlineName {
			parts = append(parts, service.NamedSnapshot{Name: be.name, Snap: inline})
			continue
		}
		be.mu.Lock()
		if be.haveSnap {
			parts = append(parts, service.NamedSnapshot{Name: be.name, Snap: be.lastSnap})
		}
		be.mu.Unlock()
	}
	m := service.MergeSnapshots(parts)
	m.Uptime = time.Since(g.start)
	m.Runtime = obs.ReadRuntime() // the gateway process answering the frame
	m.SessionsTotal = g.sessionsTotal.Load()
	m.SessionsActive = g.sessionsActive.Load()
	m.Backends = g.BackendStats()
	return m
}

// writeLocalMetrics writes the families only a gateway has, beside the
// shared fleet-snapshot families on /metrics: its own session and
// failover counters, and per-backend decode totals from the probed
// snapshots.
func (g *Gateway) writeLocalMetrics(p *obs.PromWriter) {
	p.Counter("bpsf_gateway_sessions_total", g.sessionsTotal.Load())
	p.Gauge("bpsf_gateway_sessions_active", g.sessionsActive.Load())
	p.Counter("bpsf_gateway_failovers_total", g.failoversTotal.Load())
	p.Counter("bpsf_gateway_replays_ok_total", g.replaysOK.Load())
	p.Counter("bpsf_gateway_sessions_lost_total", g.sessionsLost.Load())
	type totals struct {
		name          string
		decoded, shed uint64
	}
	var rows []totals
	for _, be := range g.backends {
		be.mu.Lock()
		snap, have := be.lastSnap, be.haveSnap
		be.mu.Unlock()
		if !have {
			continue
		}
		row := totals{name: be.name}
		for _, ps := range snap.Pools {
			row.decoded += ps.Decoded
			row.shed += ps.ShedQueue + ps.ShedDeadline
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		p.Counter(obs.Label("bpsf_backend_decoded_total", "backend", row.name), row.decoded)
	}
	for _, row := range rows {
		p.Counter(obs.Label("bpsf_backend_shed_total", "backend", row.name), row.shed)
	}
}
