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
// ground truth. -batch off retains the client-side scalar sampler and
// uploads packed syndromes (the differential baseline).
//
// Usage:
//
// Named workload profiles (-profile, registry in profile.go) replay a
// canonical mix in one command; explicitly set flags override the
// profile's corresponding field.
//
//	bpsf-load -addr 127.0.0.1:7421 -code bb144 -p 0.003 -shots 10000 -sessions 8
//	bpsf-load -addr 127.0.0.1:7421 -mode open -rate 2000 -deadline 5ms -shots 20000
//	bpsf-load -addr 127.0.0.1:7421 -code bb72 -batch off -batch-size 32
//	bpsf-load -addr 127.0.0.1:7421 -profile bulk-bb72-bposd
//
// -addr may also point at a bpsf-gateway: the protocol is identical, a
// -stats pull then returns the merged fleet snapshot with a per-backend
// breakdown, and -min-backends N gates on the number of healthy backends
// it reports (the CI fleet smoke's proof the traffic crossed a gateway).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"bpsf/internal/code"
	"bpsf/internal/codes"
	"bpsf/internal/decoding"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/service"
	"bpsf/internal/sim"
	"bpsf/internal/window"
)

// applyProfile overlays a named workload profile onto the flag values:
// each profile field becomes the default of its corresponding flag, and
// any flag the user set explicitly (isSet) wins over the profile.
func applyProfile(prof Profile, isSet func(string) bool, v profileFlags) {
	assignStr := func(name string, dst *string, val string) {
		if !isSet(name) {
			*dst = val
		}
	}
	assignInt := func(name string, dst *int, val int) {
		if !isSet(name) {
			*dst = val
		}
	}
	assignF64 := func(name string, dst *float64, val float64) {
		if !isSet(name) {
			*dst = val
		}
	}
	assignStr("code", v.code, prof.Code)
	assignInt("rounds", v.rounds, prof.Rounds)
	assignF64("p", v.p, prof.P)
	assignStr("decoder", v.decoder, prof.Spec.Kind)
	assignInt("bp-iters", v.bpIters, prof.Spec.BPIters)
	assignInt("osd-order", v.osdOrder, prof.Spec.OSDOrder)
	assignInt("phi", v.phi, prof.Spec.Phi)
	assignInt("wmax", v.wmax, prof.Spec.WMax)
	assignInt("ns", v.ns, prof.Spec.NS)
	batch := "off"
	if prof.ServerSample {
		batch = "on"
	}
	assignStr("batch", v.batch, batch)
	assignInt("batch-size", v.batchSize, prof.BatchSize)
	assignInt("sessions", v.sessions, prof.Sessions)
	assignInt("shots", v.shots, prof.Shots)
	assignStr("mode", v.mode, prof.Mode)
	assignF64("rate", v.rate, prof.Rate)
	assignInt("window", v.window, prof.Window)
	assignInt("commit", v.commit, prof.Commit)
}

// profileFlags collects the flag targets a profile may preset.
type profileFlags struct {
	code, decoder, batch, mode                 *string
	rounds, bpIters, osdOrder, phi, wmax, ns   *int
	batchSize, sessions, shots, window, commit *int
	p, rate                                    *float64
}

// failAll prints every collected session error and exits non-zero once —
// the load generator never discards a failure (the pre-PR6 code
// log.Fataled on the first error and dropped the rest).
func failAll(errs []error) {
	if len(errs) == 0 {
		return
	}
	for _, err := range errs {
		log.Print(err)
	}
	os.Exit(1)
}

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
		"server-side bit-packed 64-shot batch sampling: on | off (off = retained client-side scalar sampling + syndrome upload; ignored in -window streaming mode)")
	mode := flag.String("mode", "closed", "load model: closed | open")
	rate := flag.Float64("rate", 500, "total batch arrivals per second (open mode)")
	seed := flag.Int64("seed", 1, "sampler and stream seed base")
	deadline := flag.Duration("deadline", 0, "server queue deadline (0 = backpressure, never shed)")
	maxShed := flag.Int("max-shed", -1, "exit nonzero when more responses were shed (-1 = no check)")
	windowRounds := flag.Int("window", 0,
		"streaming mode: open windowed decode streams of this many rounds instead of batches (0 = batch mode)")
	commitRounds := flag.Int("commit", 1, "committed rounds per stream window (streaming mode)")
	replay := flag.Bool("replay", false,
		"streaming mode: replay the first recorded round stream and require byte-identical commits (library + service)")
	profile := flag.String("profile", "",
		"named workload profile to replay: "+fmt.Sprint(ProfileNames())+" (explicit flags override)")
	pullStats := flag.Bool("stats", false,
		"after the run, pull the server's telemetry snapshot in-protocol (msgStats) and print it")
	minBackends := flag.Int("min-backends", -1,
		"exit nonzero unless the target's stats snapshot reports at least this many healthy backends — the fleet-smoke gate proving traffic went through a gateway, not a bare server (-1 = no check)")
	flag.Parse()

	if *profile != "" {
		prof, err := GetProfile(*profile)
		if err != nil {
			log.Fatal(err)
		}
		set := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		applyProfile(prof, func(name string) bool { return set[name] }, profileFlags{
			code: codeName, rounds: rounds, p: p, decoder: decoder,
			bpIters: bpIters, osdOrder: osdOrder, phi: phi, wmax: wmax, ns: ns,
			batch: batch, batchSize: batchSize, sessions: sessions, shots: shots,
			mode: mode, rate: rate, window: windowRounds, commit: commitRounds,
		})
		fmt.Printf("profile %s: %s\n", prof.Name, prof.Description)
	}

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

	// Local model build only when this side samples: scalar batch mode and
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

	statsHello := service.Hello{Code: *codeName, Rounds: r, P: *p, Spec: spec}
	if *windowRounds > 0 {
		runStreamLoad(streamLoadConfig{
			addr: *addr, codeName: *codeName, rounds: r, p: *p, spec: spec,
			window: *windowRounds, commit: *commitRounds,
			sessions: *sessions, streams: *shots, mode: *mode, rate: *rate,
			seed: *seed, deadline: *deadline, replay: *replay, maxShed: *maxShed,
			css: css, d: d,
		})
		if *pullStats {
			printServerStats(*addr, statsHello)
		}
		if *minBackends >= 0 {
			checkMinBackends(*addr, statsHello, *minBackends)
		}
		return
	}
	sampling := "server-side batch sampling"
	if !useBatch {
		sampling = "client-side scalar sampling"
	}
	fmt.Printf("%s-loop: %d sessions, %d shots, batch %d, %s\n",
		*mode, *sessions, *shots, *batchSize, sampling)

	// The batch plane runs on the shared load driver (service.DriveLoad).
	// Every failure path is accounted there: open-loop batches whose
	// responses never arrive are counted and reported — they used to be
	// silently dropped, letting -max-shed 0 pass on runs that lost work —
	// and ALL session errors come back joined, not just the first.
	res, err := service.DriveLoad(*addr, service.LoadConfig{
		Code: *codeName, Rounds: r, P: *p, Spec: spec,
		Sessions: *sessions, Shots: *shots, BatchSize: *batchSize,
		ServerSample: useBatch, DEM: d,
		Mode: *mode, Rate: *rate,
		Seed: *seed, Deadline: *deadline,
	})
	if err != nil {
		if res.FailedBatches > 0 {
			log.Printf("%d batch(es) lost without responses (decoded %d, shed %d of %d shots):",
				res.FailedBatches, res.Decoded, res.Shed, *shots)
		}
		log.Fatal(err)
	}

	fmt.Printf("\n%d decoded, %d shed, %d decode failures in %v  →  %.0f syndromes/s\n",
		res.Decoded, res.Shed, res.DecodeFailures, res.Wall.Round(time.Millisecond), res.Throughput())
	if useBatch && res.Decoded > 0 {
		fmt.Printf("%d logical failures among the server-sampled shots (LER %.2e)\n",
			res.LogicalFailures, float64(res.LogicalFailures)/float64(res.Decoded))
	}

	ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }
	srv := sim.Summarize(res.ServerLat)
	cli := sim.Summarize(res.ClientLat)
	tb := sim.NewTable("latency", "n", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms", "max ms")
	tb.Row("server (queue+decode)", srv.N, ms(srv.P50), ms(srv.P95), ms(srv.P99), ms(srv.P999), ms(srv.Max))
	tb.Row("client batch RTT", cli.N, ms(cli.P50), ms(cli.P95), ms(cli.P99), ms(cli.P999), ms(cli.Max))
	if err := tb.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *pullStats {
		printServerStats(*addr, statsHello)
	}

	if *maxShed >= 0 && res.Shed > *maxShed {
		log.Fatalf("shed %d responses, budget %d", res.Shed, *maxShed)
	}
	if *minBackends >= 0 {
		checkMinBackends(*addr, statsHello, *minBackends)
	}
}

// checkMinBackends pulls a stats snapshot and enforces a floor on the
// number of healthy backends it reports. A bare bpsf-serve snapshot has
// no backends section, so the gate also proves the load actually went
// through a gateway; the per-backend breakdown prints either way.
func checkMinBackends(addr string, h service.Hello, min int) {
	c, err := service.Dial(addr, h)
	if err != nil {
		log.Fatalf("-min-backends stats session: %v", err)
	}
	defer c.Close()
	snap, err := c.Stats()
	if err != nil {
		log.Fatalf("-min-backends stats pull: %v", err)
	}
	healthy := 0
	for _, b := range snap.Backends {
		state := "down"
		if b.Healthy {
			healthy++
			state = "up"
		}
		if b.Draining {
			state += ",draining"
		}
		fmt.Printf("backend %s (%s): %s sessions_total=%d requests=%d failovers=%d replayed=%d\n",
			b.Name, b.Addr, state, b.SessionsTotal, b.Requests, b.Failovers, b.Replayed)
	}
	fmt.Printf("%d of %d backends healthy\n", healthy, len(snap.Backends))
	if healthy < min {
		log.Fatalf("%d healthy backends, floor %d (is %s a gateway?)", healthy, min, addr)
	}
}

// printServerStats opens a short stats session and prints the server's
// full telemetry snapshot — the same data the admin plane's /statusz
// serves, pulled in-protocol so it works with no admin listener bound.
func printServerStats(addr string, h service.Hello) {
	c, err := service.Dial(addr, h)
	if err != nil {
		log.Fatalf("stats session: %v", err)
	}
	defer c.Close()
	snap, err := c.Stats()
	if err != nil {
		log.Fatalf("stats pull: %v", err)
	}
	fmt.Println("\nserver telemetry snapshot (msgStats):")
	snap.WriteText(os.Stdout)
}

// ---- streaming mode ----

type streamLoadConfig struct {
	addr, codeName string
	rounds         int
	p              float64
	spec           service.Spec
	window, commit int
	sessions       int
	streams        int // total streams across sessions (one multi-round shot each)
	mode           string
	rate           float64 // total round arrivals/s (open mode)
	seed           int64
	deadline       time.Duration
	replay         bool
	maxShed        int
	css            *code.CSS
	d              *dem.DEM
}

// splitRounds slices a full multi-round syndrome into per-round vectors
// along the stream's advertised layout.
func splitRounds(s gf2.Vec, detsPerRound []int) []gf2.Vec {
	out := make([]gf2.Vec, len(detsPerRound))
	off := 0
	for ri, nd := range detsPerRound {
		v := gf2.NewVec(nd)
		for i := 0; i < nd; i++ {
			if s.Get(off + i) {
				v.Set(i, true)
			}
		}
		out[ri] = v
		off += nd
	}
	return out
}

// runStreamLoad drives the windowed stream plane: every "shot" is a full
// multi-round syndrome stream pushed round by round (open loop paces round
// arrivals at -rate regardless of commit completions), reporting
// per-commit latency percentiles — server-side (round arrival → commit)
// and client-observed (last needed round sent → commit received). Streams
// never shed; the -max-shed gate therefore passes iff the run completes.
func runStreamLoad(cfg streamLoadConfig) {
	fmt.Printf("%s-loop streaming: %d sessions, %d streams, window %d commit %d\n",
		cfg.mode, cfg.sessions, cfg.streams, cfg.window, cfg.commit)
	var interval time.Duration
	if cfg.mode == "open" {
		if cfg.rate <= 0 {
			log.Fatal("-mode open needs -rate > 0")
		}
		interval = time.Duration(float64(cfg.sessions) / cfg.rate * float64(time.Second))
	} else if cfg.mode != "closed" {
		log.Fatalf("unknown mode %q (want closed|open)", cfg.mode)
	}
	perSession := (cfg.streams + cfg.sessions - 1) / cfg.sessions

	var mu sync.Mutex
	var serverLat, clientLat []time.Duration
	var windows, streamFails, streamsRun int
	var recordedRounds []gf2.Vec // session 0, stream 0 (for -replay)
	var recordedHat []byte

	var wg sync.WaitGroup
	errs := make(chan error, cfg.sessions)
	t0 := time.Now()
	for s := 0; s < cfg.sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h := service.Hello{
				Code: cfg.codeName, Rounds: cfg.rounds, P: cfg.p,
				StreamSeed: cfg.seed + int64(s)*1000,
				Deadline:   cfg.deadline,
				Spec:       cfg.spec,
			}
			c, err := service.Dial(cfg.addr, h)
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", s, err)
				return
			}
			defer c.Close()
			sampler := dem.NewSampler(cfg.d, cfg.p, cfg.seed+int64(s))
			next := time.Now()
			for shot := 0; shot < perSession; shot++ {
				st, err := c.OpenStream(cfg.window, cfg.commit)
				if err != nil {
					errs <- fmt.Errorf("session %d stream %d: %w", s, shot, err)
					return
				}
				dets := make([]int, st.NumRounds())
				for ri := range dets {
					dets[ri] = st.RoundDets(ri)
				}
				syn, _ := sampler.SampleShared()
				rounds := splitRounds(syn, dets)
				spans := st.Spans()

				var sendMu sync.Mutex
				sendT := make([]time.Time, len(rounds))
				done := make(chan struct{})
				go func() {
					defer close(done)
					for {
						cm, err := st.NextCommit()
						if err != nil {
							return
						}
						recvT := time.Now()
						lastRound := spans[cm.Window].End - 1
						sendMu.Lock()
						sent := sendT[lastRound]
						sendMu.Unlock()
						mu.Lock()
						serverLat = append(serverLat, cm.Latency)
						clientLat = append(clientLat, recvT.Sub(sent))
						windows++
						mu.Unlock()
						if cm.Final {
							return
						}
					}
				}()
				for ri, rv := range rounds {
					if interval > 0 {
						if d := time.Until(next); d > 0 {
							time.Sleep(d)
						}
						next = next.Add(interval)
					}
					sendMu.Lock()
					sendT[ri] = time.Now()
					sendMu.Unlock()
					if err := st.SendRounds([]gf2.Vec{rv}); err != nil {
						errs <- fmt.Errorf("session %d stream %d: %w", s, shot, err)
						return
					}
				}
				<-done
				res, err := st.Finish()
				if err != nil {
					errs <- fmt.Errorf("session %d stream %d: %w", s, shot, err)
					return
				}
				mu.Lock()
				streamsRun++
				if !res.Success {
					streamFails++
				}
				if s == 0 && shot == 0 {
					recordedRounds = rounds
					recordedHat = res.ErrHat.AppendBytes(nil)
				}
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	var all []error
	for err := range errs {
		all = append(all, err)
	}
	failAll(all) // every session's failure, not just the first
	wall := time.Since(t0)

	fmt.Printf("\n%d streams (%d windows committed), %d stream failures, 0 shed in %v  →  %.0f windows/s\n",
		streamsRun, windows, streamFails, wall.Round(time.Millisecond),
		float64(windows)/wall.Seconds())
	ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }
	srv := sim.Summarize(serverLat)
	cli := sim.Summarize(clientLat)
	tb := sim.NewTable("per-commit latency", "n", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms", "max ms")
	tb.Row("server (arrival→commit)", srv.N, ms(srv.P50), ms(srv.P95), ms(srv.P99), ms(srv.P999), ms(srv.Max))
	tb.Row("client (send→commit)", cli.N, ms(cli.P50), ms(cli.P95), ms(cli.P99), ms(cli.P999), ms(cli.Max))
	if err := tb.Write(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if cfg.replay {
		verifyReplay(cfg, recordedRounds, recordedHat)
	}
	if cfg.maxShed >= 0 {
		fmt.Println("shed budget met: streams never shed")
	}
}

// verifyReplay re-decodes the recorded round stream two independent ways —
// through the library windowed decoder under the session's deterministic
// seed, and through a fresh service session — and requires the committed
// corrections to be byte-identical to the recorded run (the streaming
// determinism contract, DESIGN.md §7).
func verifyReplay(cfg streamLoadConfig, rounds []gf2.Vec, wantHat []byte) {
	if len(rounds) == 0 {
		log.Fatal("replay: no recorded stream")
	}
	layout := window.MemexpLayout(cfg.css, cfg.rounds)
	wd, err := window.New(cfg.d.H, cfg.d.Priors(cfg.p), layout, cfg.window, cfg.commit,
		decoding.Factory(cfg.spec.NewDecoder))
	if err != nil {
		log.Fatal(err)
	}
	wd.Reseed(service.RequestSeed(cfg.seed, 0)) // session 0, stream 0
	st := wd.NewStream()
	for _, rv := range rounds {
		if _, err := st.PushRound(rv); err != nil {
			log.Fatal(err)
		}
	}
	if got := st.Finish().ErrHat.AppendBytes(nil); !bytes.Equal(got, wantHat) {
		log.Fatal("replay: library windowed decode diverges from the recorded service stream")
	}

	c, err := service.Dial(cfg.addr, service.Hello{
		Code: cfg.codeName, Rounds: cfg.rounds, P: cfg.p,
		StreamSeed: cfg.seed, Deadline: cfg.deadline, Spec: cfg.spec,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cs, err := c.OpenStream(cfg.window, cfg.commit)
	if err != nil {
		log.Fatal(err)
	}
	for _, rv := range rounds {
		if err := cs.SendRounds([]gf2.Vec{rv}); err != nil {
			log.Fatal(err)
		}
	}
	res, err := cs.Finish()
	if err != nil {
		log.Fatal(err)
	}
	if got := res.ErrHat.AppendBytes(nil); !bytes.Equal(got, wantHat) {
		log.Fatal("replay: service stream replay diverges from the recorded run")
	}
	fmt.Println("replay: byte-identical (library windowed decode + service stream replay)")
}
