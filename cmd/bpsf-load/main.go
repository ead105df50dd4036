// Command bpsf-load drives a bpsf-serve instance with synthetic syndrome
// traffic and reports throughput and latency percentiles. Closed-loop mode
// keeps a fixed number of sessions each with one batch in flight (the
// classic saturation probe); open-loop mode submits batches at a fixed
// arrival rate regardless of completions, which is what exposes queueing
// delay and shedding under overload.
//
// Batch traffic samples server-side by default (-batch on): requests carry
// only a shot count and the server draws syndromes from its word-parallel
// batch frame sampler, so the wire and the client pay nothing for syndrome
// generation and responses report logical failures against the sampled
// ground truth. -batch off samples the same shots client-side and uploads
// packed syndromes, so both modes decode the same syndromes under one
// -seed.
//
// -window N switches to the stream plane: every shot is a client-sampled
// multi-round syndrome pushed round by round over a windowed decode
// stream, reporting per-commit latency; -replay then re-decodes the first
// stream through the library and a fresh session and requires
// byte-identical commits. Both planes run on service.DriveLoad.
//
// Usage:
//
//	bpsf-load -addr 127.0.0.1:7421 -code bb144 -p 0.003 -shots 10000 -sessions 8
//	bpsf-load -addr 127.0.0.1:7421 -mode open -rate 2000 -deadline 5ms -shots 20000
//	bpsf-load -addr 127.0.0.1:7421 -code bb72 -batch off -batch-size 32
//	bpsf-load -addr 127.0.0.1:7421 -code rsurf5 -p 1e-3 -decoder uf -window 3 -commit 1 -shots 64 -replay
//
// -addr may also point at a bpsf-gateway: the protocol is identical, a
// -stats pull then returns the merged fleet snapshot with a per-backend
// breakdown, and -min-backends N gates on the number of healthy backends
// it reports (the CI fleet smoke's proof the traffic crossed a gateway).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"bpsf/internal/code"
	"bpsf/internal/codes"
	"bpsf/internal/decoding"
	"bpsf/internal/dem"
	"bpsf/internal/memexp"
	"bpsf/internal/service"
	"bpsf/internal/sim"
	"bpsf/internal/window"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpsf-load: ")
	addr := flag.String("addr", "127.0.0.1:7421", "server address (host:port, unix:<path>, or a Unix socket path)")
	codeName := flag.String("code", "bb144", "code: "+fmt.Sprint(codes.Names()))
	rounds := flag.Int("rounds", 0, "extraction rounds (0 = code default)")
	p := flag.Float64("p", 0.003, "physical error rate")
	decoder := flag.String("decoder", "bpsf", "decoder: "+fmt.Sprint(service.SpecKinds()))
	bpIters := flag.Int("bp-iters", 100, "BP iteration cap")
	osdOrder := flag.Int("osd-order", 10, "OSD-CS order (bposd)")
	phi := flag.Int("phi", 50, "BP-SF candidate set size |Φ|")
	wmax := flag.Int("wmax", 10, "BP-SF maximum trial weight")
	ns := flag.Int("ns", 10, "BP-SF sampled trials per weight (0 = exhaustive)")
	sessions := flag.Int("sessions", 4, "concurrent sessions")
	shots := flag.Int("shots", 1000, "total syndromes across all sessions")
	batchSize := flag.Int("batch-size", 16, "syndromes per request batch")
	batch := flag.String("batch", "on",
		"server-side bit-packed 64-shot batch sampling: on | off (off = the same shots sampled client-side + syndrome upload; ignored in -window streaming mode)")
	mode := flag.String("mode", "closed", "load model: closed | open")
	rate := flag.Float64("rate", 500, "total batch arrivals per second, round arrivals with -window (open mode)")
	seed := flag.Int64("seed", 1, "sampler and stream seed base")
	deadline := flag.Duration("deadline", 0, "server queue deadline (0 = backpressure, never shed)")
	maxShed := flag.Int("max-shed", -1, "exit nonzero when more responses were shed (-1 = no check)")
	windowRounds := flag.Int("window", 0,
		"streaming mode: open windowed decode streams of this many rounds instead of batches (0 = batch mode)")
	commitRounds := flag.Int("commit", 1, "committed rounds per stream window (streaming mode)")
	replay := flag.Bool("replay", false,
		"streaming mode: replay the first recorded round stream and require byte-identical commits (library + service)")
	pullStats := flag.Bool("stats", false,
		"after the run, pull the server's telemetry snapshot in-protocol (msgStats) and print it")
	minBackends := flag.Int("min-backends", -1,
		"exit nonzero unless the target's stats snapshot reports at least this many healthy backends — the fleet-smoke gate proving traffic went through a gateway, not a bare server (-1 = no check)")
	flag.Parse()

	useBatch, err := sim.ParseBatchFlag(*batch)
	if err != nil {
		log.Fatal(err)
	}
	entry, ok := codes.Catalog()[*codeName]
	if !ok {
		log.Fatalf("unknown code %q (known: %v)", *codeName, codes.Names())
	}
	r := *rounds
	if r == 0 {
		r = entry.Rounds
	}
	spec := service.Spec{Kind: *decoder, BPIters: *bpIters, OSDOrder: *osdOrder,
		Phi: *phi, WMax: *wmax, NS: *ns}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	// Local model build only when this side samples: -batch off and
	// streaming both generate syndromes client-side (the generator owns its
	// syndrome source so the server is measured on decoding alone). The
	// default server-sampled batch mode skips the DEM extraction entirely —
	// the server already owns that build.
	var css *code.CSS
	var d *dem.DEM
	if !useBatch || *windowRounds > 0 {
		var err error
		css, err = entry.Build()
		if err != nil {
			log.Fatal(err)
		}
		circ, err := memexp.Build(css, r, memexp.Uniform())
		if err != nil {
			log.Fatal(err)
		}
		d, err = dem.Extract(circ)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s, %d rounds, %d mechanisms, p=%g, decoder %s\n", css.Name, r, d.NumMechs(), *p, spec)
	} else {
		fmt.Printf("%s, %d rounds, p=%g, decoder %s (server-side sampling)\n", entry.Name, r, *p, spec)
	}

	cfg := service.LoadConfig{
		Code: *codeName, Rounds: r, P: *p, Spec: spec,
		Sessions: *sessions, Shots: *shots, BatchSize: *batchSize,
		ServerSample: useBatch, DEM: d,
		Mode: *mode, Rate: *rate,
		Seed: *seed, Deadline: *deadline,
		Window: *windowRounds, Commit: *commitRounds,
	}
	stream := cfg.Window > 0
	if stream {
		fmt.Printf("%s-loop streaming: %d sessions, %d streams, window %d commit %d\n",
			*mode, *sessions, *shots, *windowRounds, *commitRounds)
	} else {
		sampling := "server-side batch sampling"
		if !useBatch {
			sampling = "client-side sampling"
		}
		fmt.Printf("%s-loop: %d sessions, %d shots, batch %d, %s\n",
			*mode, *sessions, *shots, *batchSize, sampling)
	}

	// Every failure path is accounted by DriveLoad: batches or streams
	// whose responses never arrive are counted and reported, and ALL
	// session errors come back joined, not just the first.
	res, err := service.DriveLoad(*addr, cfg)
	if err != nil {
		if res.FailedBatches > 0 {
			unit := "batch(es)"
			if stream {
				unit = "stream(s)"
			}
			log.Printf("%d %s lost without responses (decoded %d, shed %d of %d shots):",
				res.FailedBatches, unit, res.Decoded, res.Shed, *shots)
		}
		log.Fatal(err)
	}

	title, srvRow, cliRow := "latency", "server (queue+decode)", "client batch RTT"
	if stream {
		fmt.Printf("\n%d streams (%d windows committed), %d stream failures, 0 shed in %v  →  %.0f windows/s\n",
			res.Decoded, res.Windows, res.DecodeFailures, res.Wall.Round(time.Millisecond),
			float64(res.Windows)/res.Wall.Seconds())
		title, srvRow, cliRow = "per-commit latency", "server (arrival→commit)", "client (send→commit)"
	} else {
		fmt.Printf("\n%d decoded, %d shed, %d decode failures in %v  →  %.0f syndromes/s\n",
			res.Decoded, res.Shed, res.DecodeFailures, res.Wall.Round(time.Millisecond), res.Throughput())
		if useBatch && res.Decoded > 0 {
			fmt.Printf("%d logical failures among the server-sampled shots (LER %.2e)\n",
				res.LogicalFailures, float64(res.LogicalFailures)/float64(res.Decoded))
		}
	}
	ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }
	srv := sim.Summarize(res.ServerLat)
	cli := sim.Summarize(res.ClientLat)
	tb := sim.NewTable(title, "n", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms", "max ms")
	tb.Row(srvRow, srv.N, ms(srv.P50), ms(srv.P95), ms(srv.P99), ms(srv.P999), ms(srv.Max))
	tb.Row(cliRow, cli.N, ms(cli.P50), ms(cli.P95), ms(cli.P99), ms(cli.P999), ms(cli.Max))
	if err := tb.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if stream && *replay {
		if err := verifyReplay(*addr, cfg, css, res); err != nil {
			log.Fatal(err)
		}
		fmt.Println("replay: byte-identical (library windowed decode + service stream replay)")
	}

	// -stats and -min-backends share one in-protocol stats pull (msgStats):
	// the data the admin plane's /statusz serves, so it works with no admin
	// listener bound. Through a gateway it is the merged fleet snapshot with
	// a per-backend section; a bare bpsf-serve has none, so the backend
	// floor also proves the load went through a gateway.
	healthy, backends := 0, 0
	if *pullStats || *minBackends >= 0 {
		snap, err := pullSnapshot(*addr, service.Hello{Code: *codeName, Rounds: r, P: *p, Spec: spec})
		if err != nil {
			log.Fatalf("stats pull: %v", err)
		}
		fmt.Println("\nserver telemetry snapshot (msgStats):")
		snap.WriteText(os.Stdout)
		for _, b := range snap.Backends {
			if b.Healthy {
				healthy++
			}
		}
		backends = len(snap.Backends)
	}

	if *maxShed >= 0 {
		if res.Shed > *maxShed {
			log.Fatalf("shed %d responses, budget %d", res.Shed, *maxShed)
		}
		if stream {
			fmt.Println("shed budget met: streams never shed")
		}
	}
	if *minBackends >= 0 {
		fmt.Printf("%d of %d backends healthy\n", healthy, backends)
		if healthy < *minBackends {
			log.Fatalf("%d healthy backends, floor %d (is %s a gateway?)", healthy, *minBackends, *addr)
		}
	}
}

// pullSnapshot opens a short session and pulls the target's snapshot.
func pullSnapshot(addr string, h service.Hello) (service.ServerSnapshot, error) {
	c, err := service.Dial(addr, h)
	if err != nil {
		return service.ServerSnapshot{}, err
	}
	defer c.Close()
	return c.Stats()
}

// verifyReplay re-decodes session 0's first stream two independent ways —
// through the library windowed decoder under the session's deterministic
// seed, and through a fresh one-stream service session — and requires both
// committed corrections to equal the recorded run's (the streaming
// determinism contract, DESIGN.md §7). The library decoder takes the
// commit the server resolved, so -commit 0 replays the server's default.
func verifyReplay(addr string, cfg service.LoadConfig, css *code.CSS, rec service.LoadResult) error {
	want := rec.FirstStream
	if want.Len() == 0 {
		return errors.New("replay: no recorded stream")
	}
	wd, err := window.New(cfg.DEM.H, cfg.DEM.Priors(cfg.P), window.MemexpLayout(css, cfg.Rounds),
		cfg.Window, rec.FirstCommit, decoding.Factory(cfg.Spec.NewDecoder))
	if err != nil {
		return err
	}
	wd.Reseed(service.RequestSeed(cfg.Seed, 0)) // session 0, stream 0
	syn, _ := dem.NewSampler(cfg.DEM, cfg.P, service.SampleSeed(cfg.Seed)).SampleShared()
	if !wd.Decode(syn).ErrHat.Equal(want) {
		return errors.New("replay: library windowed decode diverges from the recorded service stream")
	}

	cfg.Sessions, cfg.Shots, cfg.Mode = 1, 1, "closed"
	res, err := service.DriveLoad(addr, cfg)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if !res.FirstStream.Equal(want) {
		return errors.New("replay: service stream replay diverges from the recorded run")
	}
	return nil
}
