// Command bpsf-serve runs the streaming decode service: clients open
// sessions naming a code, round count, error rate and decoder spec, then
// stream framed syndrome batches and receive per-syndrome decode
// responses. Sessions share per-(code,rounds,p,spec) warm decoder pools
// with adaptive batch coalescing and deadline-based load shedding; see
// DESIGN.md §5 for the protocol and cmd/bpsf-load for a traffic source.
//
// Usage:
//
//	bpsf-serve -addr :7421 -pool-size 8 -queue-depth 1024
//
// SIGINT/SIGTERM drains gracefully: accepted work completes, and the full
// telemetry snapshot (pools, stage histograms, slowest traces, runtime)
// prints on exit and every -stats interval. SIGUSR1 dumps the same
// snapshot to stderr without disturbing service. -admin binds the HTTP
// telemetry plane: Prometheus /metrics, JSON /statusz and /debug/pprof
// (DESIGN.md §10).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bpsf/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpsf-serve: ")
	addr := flag.String("addr", ":7421", "listen address")
	uds := flag.String("uds", "", "also listen on a Unix-domain socket at this path (co-located clients skip the TCP stack; a stale socket file is removed first)")
	admin := flag.String("admin", "", "admin/telemetry HTTP listen address serving /metrics, /statusz and /debug/pprof (empty = off)")
	poolSize := flag.Int("pool-size", runtime.NumCPU(), "warm decoders per pool")
	queueDepth := flag.Int("queue-depth", 1024, "admission queue bound per pool")
	maxBatch := flag.Int("max-batch", 32, "adaptive coalescing cap")
	decoders := flag.String("decoders", "", "served decoder kinds, comma-separated (empty = all of "+fmt.Sprint(service.SpecKinds())+")")
	windowRounds := flag.Int("window", 3, "default sliding-window size for streams opened without one")
	commitRounds := flag.Int("commit", 1, "default committed rounds per stream window")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "session grace period on shutdown")
	idleTimeout := flag.Duration("idle-timeout", 0, "drop a session whose client sends nothing for this long (0 = never)")
	writeTimeout := flag.Duration("write-timeout", 0, "drop a session whose client stops reading replies for this long per flush (0 = never)")
	statsEvery := flag.Duration("stats", 0, "periodic stats interval (0 = only on exit)")
	quiet := flag.Bool("quiet", false, "suppress per-session log lines")
	flag.Parse()

	allowed, err := parseDecoderKinds(*decoders)
	if err != nil {
		log.Fatal(err)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...interface{}) {}
	}
	if *commitRounds < 1 || *commitRounds > *windowRounds {
		log.Fatalf("need 1 ≤ -commit ≤ -window, got -window %d -commit %d", *windowRounds, *commitRounds)
	}
	srv := service.NewServer(service.Options{
		PoolSize:     *poolSize,
		QueueDepth:   *queueDepth,
		MaxBatch:     *maxBatch,
		AllowedKinds: allowed,
		StreamWindow: *windowRounds,
		StreamCommit: *commitRounds,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		Logf:         logf,
	})
	if err := srv.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	if *uds != "" {
		// a socket file left by a dead previous run would fail the bind;
		// Remove only ever unlinks the path, never a live listener's state
		if err := os.Remove(*uds); err != nil && !os.IsNotExist(err) {
			log.Fatal(err)
		}
		if err := srv.ListenUnix(*uds); err != nil {
			log.Fatal(err)
		}
		log.Printf("also listening on unix socket %s", *uds)
	}
	log.Printf("listening on %s (pool-size=%d queue-depth=%d max-batch=%d stream-window=%d commit=%d)",
		srv.Addr(), *poolSize, *queueDepth, *maxBatch, *windowRounds, *commitRounds)
	if *admin != "" {
		adminAddr, err := srv.ServeAdmin(*admin)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("admin plane on http://%s (/metrics /statusz /debug/pprof)", adminAddr)
	}

	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				srv.Snapshot().WriteText(os.Stdout)
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	sig := waitSignals(sigs, func() { srv.Snapshot().WriteText(os.Stderr) })
	log.Printf("%v: draining (grace %v)", sig, *drainGrace)
	srv.Drain(*drainGrace)
	srv.Snapshot().WriteText(os.Stdout)
}

// waitSignals blocks until a terminating signal arrives, invoking onDump
// for each SIGUSR1 along the way (the live stats dump; service is not
// disturbed). Returns the terminating signal, or nil if the channel
// closes first.
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

// parseDecoderKinds resolves the -decoders allowlist: a comma-separated
// subset of the registered kinds, or empty for all. Unknown names error
// with the available set (the CLI exits non-zero).
func parseDecoderKinds(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	known := make(map[string]bool)
	for _, k := range service.SpecKinds() {
		known[k] = true
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown decoder %q in -decoders (available: %v)", name, service.SpecKinds())
		}
		out = append(out, name)
	}
	return out, nil
}
