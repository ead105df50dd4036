// Command bpsf-latency measures decoding-time distributions for one code
// under circuit-level noise: the selected -decoder (serial, and for BP-SF
// the modeled P-worker pools and GPU estimates) against the BP-OSD
// baseline — the measurements behind the paper's Figures 13–16 and Table I.
// -window wraps the measured decoder in the sliding-window scheduler to
// read the bounded-latency streaming trade-off directly.
//
// Usage:
//
//	bpsf-latency -code bb144 -p 0.003 -shots 500 -rounds 6 -model-workers 2,4,8
//	bpsf-latency -code rsurf5 -decoder uf -window 3 -shots 2000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"

	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/memexp"
	"bpsf/internal/sim"
	"bpsf/internal/window"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpsf-latency: ")
	codeName := flag.String("code", "bb144", "code: "+fmt.Sprint(codes.Names()))
	p := flag.Float64("p", 0.003, "physical error rate")
	shots := flag.Int("shots", 300, "number of samples")
	seed := flag.Int64("seed", 1, "sampler seed")
	rounds := flag.Int("rounds", 0, "extraction rounds (0 = code default)")
	decoder := flag.String("decoder", "bpsf", "measured decoder: "+fmt.Sprint(sim.DecoderNames()))
	bpIters := flag.Int("bp-iters", 100, "measured decoder's BP iteration cap")
	osdOrder := flag.Int("osd-order", 10, "OSD-CS order (measured bposd decoder)")
	phi := flag.Int("phi", 50, "BP-SF candidate set size |Φ|")
	wmax := flag.Int("wmax", 10, "BP-SF maximum trial weight")
	ns := flag.Int("ns", 10, "BP-SF sampled trials per weight (0 = exhaustive)")
	windowRounds := flag.Int("window", 0,
		"wrap the measured decoder in the sliding-window scheduler (0 = whole-history)")
	commitRounds := flag.Int("commit", 1, "committed rounds per window (with -window)")
	osdIters := flag.Int("osd-bp-iters", 1000, "baseline BP-OSD BP iteration cap")
	modelWorkersFlag := flag.String("model-workers", "2,4,8", "modeled worker pool sizes (bpsf only)")
	workers := flag.Int("workers", runtime.NumCPU(),
		"Monte-Carlo shard workers (per-shot times are noisier when shards share cores)")
	flag.Parse()

	entry, ok := codes.Catalog()[*codeName]
	if !ok {
		log.Fatalf("unknown code %q (known: %v)", *codeName, codes.Names())
	}
	css, err := entry.Build()
	if err != nil {
		log.Fatal(err)
	}
	r := *rounds
	if r == 0 {
		r = entry.Rounds
	}
	spec, err := resolveFlags(*p, *decoder, sim.Spec{
		BPIters:  *bpIters,
		OSDOrder: *osdOrder,
		Phi:      *phi,
		WMax:     *wmax,
		NS:       *ns,
		Window:   *windowRounds,
		Commit:   *commitRounds,
	})
	if err != nil {
		log.Fatal(err)
	}
	if spec.Window > 0 {
		spec.Layout = window.MemexpLayout(css, r)
	}
	circ, err := memexp.Build(css, r, memexp.Uniform())
	if err != nil {
		log.Fatal(err)
	}
	d, err := dem.Extract(circ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, %d rounds, %d mechanisms, p=%g, %d shots\n", css.Name, r, d.NumMechs(), *p, *shots)

	var modelWorkers []int
	for _, tok := range strings.Split(*modelWorkersFlag, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || w < 1 {
			log.Fatalf("bad -model-workers entry %q", tok)
		}
		modelWorkers = append(modelWorkers, w)
	}

	cfg := sim.Config{P: *p, Shots: *shots, Seed: *seed, KeepRecords: true, Workers: *workers}

	osdSpec := sim.Spec{Kind: "bposd", BPIters: *osdIters, OSDOrder: 10}
	osdRes, err := sim.RunCircuit(d, r, osdSpec.NewDecoder, cfg)
	if err != nil {
		log.Fatal(err)
	}

	sfRes, err := sim.RunCircuit(d, r, spec.NewDecoder, cfg)
	if err != nil {
		log.Fatal(err)
	}

	rows, err := sim.LatencyStudy(osdRes, sfRes, modelWorkers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LER/round: %s %.3e, %s %.3e\n\n", osdRes.Decoder, osdRes.LERRound, sfRes.Decoder, sfRes.LERRound)
	if _, err := sim.WriteLatency(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
}

// resolveFlags checks -p and resolves the decoder flags into a validated
// spec, so that every bad flag value exits before any shard starts.
func resolveFlags(p float64, decoder string, flags sim.Spec) (sim.Spec, error) {
	if err := sim.CheckP(p); err != nil {
		return sim.Spec{}, err
	}
	return sim.FlagSpec(decoder, flags)
}
