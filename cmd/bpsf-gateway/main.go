// Command bpsf-gateway fronts a fleet of bpsf-serve backends with one
// client-facing decode endpoint. It speaks the same length-prefixed
// protocol on both sides: sessions are routed by rendezvous-hashing
// their decode identity (code, rounds, p, spec: the backends' pool key)
// so identical workloads share warm pools, every client frame is
// journaled before it
// is forwarded, and when a backend dies mid-session the gateway replays
// the journal onto the next-ranked healthy backend — the determinism
// contract makes the resumed stream byte-identical, and the gateway
// asserts that per reply plane (DESIGN.md §12).
//
// Usage:
//
//	bpsf-gateway -listen :7430 -backend b0=10.0.0.1:7421 -backend b1=10.0.0.2:7421
//	bpsf-gateway -listen :7430 -backend b0=h0:7421,b1=h1:7421 -admin :7431
//
// SIGINT/SIGTERM drains: the listener closes, live sessions get the
// grace period, then force-close. SIGUSR1 dumps the merged fleet
// telemetry snapshot to stderr. -admin serves Prometheus /metrics with
// per-backend bpsf_backend_* families, JSON /statusz and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bpsf/internal/fleet"
)

// parseBackends resolves the repeated -backend flag values: each is one
// or more comma-separated name=addr pairs. Names must be unique; both
// halves must be non-empty.
func parseBackends(vals []string) ([]fleet.BackendAddr, error) {
	seen := make(map[string]bool)
	var out []fleet.BackendAddr
	for _, v := range vals {
		for _, pair := range strings.Split(v, ",") {
			pair = strings.TrimSpace(pair)
			if pair == "" {
				continue
			}
			name, addr, ok := strings.Cut(pair, "=")
			if !ok || name == "" || addr == "" {
				return nil, fmt.Errorf("bad -backend %q (want name=host:port)", pair)
			}
			if seen[name] {
				return nil, fmt.Errorf("duplicate backend name %q", name)
			}
			seen[name] = true
			out = append(out, fleet.BackendAddr{Name: name, Addr: addr})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backends: pass at least one -backend name=host:port")
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpsf-gateway: ")
	listen := flag.String("listen", ":7430", "client-facing listen address")
	admin := flag.String("admin", "", "admin/telemetry HTTP listen address serving /metrics, /statusz and /debug/pprof (empty = off)")
	var backendVals []string
	flag.Func("backend", "backend as name=addr (host:port, unix:<path>, or a socket path; repeatable or comma-separated)", func(v string) error {
		backendVals = append(backendVals, v)
		return nil
	})
	maxSessions := flag.Int("max-sessions", 64, "session cap per backend; full backends are skipped in the ranking")
	maxJournal := flag.Int("max-journal", 8<<20, "replay journal cap per session in bytes; beyond it a session survives but cannot fail over")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "backend health probe period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "bound on one health-probe round trip and on each wait for a backend's ack; a backend whose ack is late is probed and marked down only if the probe fails too")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "session grace period on shutdown")
	idleTimeout := flag.Duration("idle-timeout", 0, "drop a session whose client sends nothing for this long (client hop only; 0 = never)")
	writeTimeout := flag.Duration("write-timeout", 0, "drop a session whose client stops reading replies (per frame write; 0 = never)")
	quiet := flag.Bool("quiet", false, "suppress per-session and failover log lines")
	flag.Parse()

	backends, err := parseBackends(backendVals)
	if err != nil {
		log.Fatal(err)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...interface{}) {}
	}
	gw, err := fleet.NewGateway(fleet.GatewayOptions{
		Backends:              backends,
		MaxSessionsPerBackend: *maxSessions,
		MaxJournalBytes:       *maxJournal,
		ProbeInterval:         *probeInterval,
		ProbeTimeout:          *probeTimeout,
		IdleTimeout:           *idleTimeout,
		WriteTimeout:          *writeTimeout,
		Logf:                  logf,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := gw.Listen(*listen); err != nil {
		log.Fatal(err)
	}
	log.Printf("routing %d backend(s) on %s (max-sessions=%d)", len(backends), gw.Addr(), *maxSessions)
	for _, b := range backends {
		log.Printf("  backend %s = %s", b.Name, b.Addr)
	}
	if *admin != "" {
		adminAddr, err := gw.ServeAdmin(*admin)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("admin plane on http://%s (/metrics /statusz /debug/pprof)", adminAddr)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	sig := waitSignals(sigs, func() { gw.Snapshot().WriteText(os.Stderr) })
	log.Printf("%v: draining (grace %v)", sig, *drainGrace)
	gw.Drain(*drainGrace)
	gw.Snapshot().WriteText(os.Stdout)
}

// waitSignals blocks until a terminating signal arrives, invoking onDump
// for each SIGUSR1 along the way (the live fleet-stats dump; service is
// not disturbed).
func waitSignals(sigs <-chan os.Signal, onDump func()) os.Signal {
	for sig := range sigs {
		if sig == syscall.SIGUSR1 {
			onDump()
			continue
		}
		return sig
	}
	return nil
}
