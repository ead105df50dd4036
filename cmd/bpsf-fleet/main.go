// Command bpsf-fleet boots a local loopback decode fleet for CI and
// development: N bpsf-serve-equivalent backends (b0..bN-1) on ephemeral
// loopback ports behind one bpsf-gateway front door, with scheduled
// fault injection — kill a member mid-run, revive it, or cycle every
// member through a drain-aware rolling restart. The gateway's failover
// machinery sees real TCP backends dying, exactly like a multi-host
// fleet (DESIGN.md §12).
//
// Usage:
//
//	bpsf-fleet -n 3 -listen 127.0.0.1:7430 -admin 127.0.0.1:7431
//	bpsf-fleet -n 3 -kill 1@2s -revive 1s -duration 10s
//	bpsf-fleet -n 3 -rolling 2s -rolling-grace 500ms -duration 10s
//
// With -duration the fleet stops by itself (CI mode); otherwise it runs
// until SIGINT/SIGTERM. SIGUSR1 dumps the merged fleet telemetry
// snapshot to stderr. The final merged snapshot always prints on exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bpsf/internal/fleet"
	"bpsf/internal/service"
)

// killSpec is a scheduled member kill: index i, delay d after start.
type killSpec struct {
	index int
	after time.Duration
}

// parseKill resolves one -kill value of the form "i@dur" (member index
// at sign duration), e.g. "1@2s".
func parseKill(v string) (killSpec, error) {
	is, ds, ok := strings.Cut(v, "@")
	if !ok {
		return killSpec{}, fmt.Errorf("bad -kill %q (want index@delay, e.g. 1@2s)", v)
	}
	i, err := strconv.Atoi(is)
	if err != nil || i < 0 {
		return killSpec{}, fmt.Errorf("bad -kill index in %q", v)
	}
	d, err := time.ParseDuration(ds)
	if err != nil || d < 0 {
		return killSpec{}, fmt.Errorf("bad -kill delay in %q", v)
	}
	return killSpec{index: i, after: d}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpsf-fleet: ")
	n := flag.Int("n", 3, "backend member count")
	listen := flag.String("listen", "127.0.0.1:0", "gateway listen address (clients dial this)")
	admin := flag.String("admin", "", "gateway admin HTTP listen address serving /metrics, /statusz and /debug/pprof (empty = off)")
	poolSize := flag.Int("pool-size", 2, "warm decoders per pool, per member")
	queueDepth := flag.Int("queue-depth", 1024, "admission queue bound per pool, per member")
	maxBatch := flag.Int("max-batch", 32, "adaptive coalescing cap per member")
	windowRounds := flag.Int("window", 3, "default sliding-window size for the members' streams")
	commitRounds := flag.Int("commit", 1, "default committed rounds per stream window")
	var kills []killSpec
	flag.Func("kill", "kill member i after a delay, as index@delay e.g. 1@2s (repeatable)", func(v string) error {
		k, err := parseKill(v)
		if err == nil {
			kills = append(kills, k)
		}
		return err
	})
	revive := flag.Duration("revive", 0, "restart each killed member this long after its kill (0 = leave it dead)")
	rolling := flag.Duration("rolling", 0, "start a drain-aware rolling restart of every member after this delay (0 = off)")
	rollingGrace := flag.Duration("rolling-grace", 500*time.Millisecond, "per-member session grace during the rolling restart")
	duration := flag.Duration("duration", 0, "stop the fleet after this long (0 = run until SIGINT/SIGTERM)")
	quiet := flag.Bool("quiet", false, "suppress member and gateway log lines")
	flag.Parse()

	if *commitRounds < 1 || *commitRounds > *windowRounds {
		log.Fatalf("need 1 ≤ -commit ≤ -window, got -window %d -commit %d", *windowRounds, *commitRounds)
	}
	for _, k := range kills {
		if k.index >= *n {
			log.Fatalf("-kill %d@%v: no member %d in a fleet of %d", k.index, k.after, k.index, *n)
		}
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...interface{}) {}
	}
	f, err := fleet.StartLocal(fleet.FleetOptions{
		Backends: *n,
		Server: service.Options{
			PoolSize:     *poolSize,
			QueueDepth:   *queueDepth,
			MaxBatch:     *maxBatch,
			StreamWindow: *windowRounds,
			StreamCommit: *commitRounds,
			Logf:         logf,
		},
		Gateway:       fleet.GatewayOptions{Logf: logf},
		GatewayListen: *listen,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	log.Printf("gateway on %s fronting %d member(s) (pool-size=%d window=%d commit=%d)",
		f.GatewayAddr(), *n, *poolSize, *windowRounds, *commitRounds)
	for i := 0; i < *n; i++ {
		addr, _ := f.BackendAddr(i)
		log.Printf("  b%d = %s", i, addr)
	}
	if *admin != "" {
		adminAddr, err := f.Gateway().ServeAdmin(*admin)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("admin plane on http://%s (/metrics /statusz /debug/pprof)", adminAddr)
	}

	// Scheduled fault injection. A failure in any scheduled op fails the
	// whole run (exit non-zero) once the fleet stops — CI must not pass
	// on a smoke whose kill or restart never actually happened.
	var failed atomic.Bool
	for _, k := range kills {
		k := k
		time.AfterFunc(k.after, func() {
			log.Printf("killing b%d (t=%v)", k.index, k.after)
			if err := f.Kill(k.index); err != nil {
				log.Printf("kill b%d: %v", k.index, err)
				failed.Store(true)
				return
			}
			if *revive > 0 {
				time.AfterFunc(*revive, func() {
					log.Printf("reviving b%d", k.index)
					if err := f.Restart(k.index); err != nil {
						log.Printf("revive b%d: %v", k.index, err)
						failed.Store(true)
					}
				})
			}
		})
	}
	if *rolling > 0 {
		time.AfterFunc(*rolling, func() {
			log.Printf("rolling restart (grace %v)", *rollingGrace)
			if err := f.RollingRestart(*rollingGrace); err != nil {
				log.Printf("rolling restart: %v", err)
				failed.Store(true)
				return
			}
			log.Printf("rolling restart done")
		})
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	var timeout <-chan time.Time
	if *duration > 0 {
		timeout = time.After(*duration)
	}
loop:
	for {
		select {
		case sig := <-sigs:
			if sig == syscall.SIGUSR1 {
				f.Snapshot().WriteText(os.Stderr)
				continue
			}
			log.Printf("%v: stopping fleet", sig)
			break loop
		case <-timeout:
			log.Printf("duration %v elapsed: stopping fleet", *duration)
			break loop
		}
	}
	snap := f.Snapshot()
	f.Close()
	snap.WriteText(os.Stdout)
	if failed.Load() {
		log.Fatal("scheduled fault injection failed (see log above)")
	}
}
