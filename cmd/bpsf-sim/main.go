// Command bpsf-sim runs a single logical-error-rate experiment: one code,
// one noise model, one decoder configuration, one error rate. It is the
// composable unit behind bpsf-figs, useful for exploring parameters the
// figures do not cover.
//
// Usage:
//
//	bpsf-sim -code bb144 -model circuit -decoder bpsf -p 0.003 -shots 1000 \
//	         -bp-iters 100 -phi 50 -wmax 10 -ns 10
//	bpsf-sim -code coprime154 -model capacity -decoder bposd -p 0.05 \
//	         -bp-iters 1000 -osd-order 10
//	bpsf-sim -code rsurf5 -model capacity -decoder uf -p 0.001 -shots 20000
//	bpsf-sim -code rsurf5 -model circuit -decoder uf -window 3 -commit 1 -p 0.001
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/memexp"
	"bpsf/internal/sim"
	"bpsf/internal/window"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpsf-sim: ")
	codeName := flag.String("code", "bb144", "code: "+fmt.Sprint(codes.Names()))
	model := flag.String("model", "capacity", "noise model: capacity | circuit")
	decoder := flag.String("decoder", "bpsf", "decoder: "+fmt.Sprint(sim.DecoderNames()))
	p := flag.Float64("p", 0.01, "physical error rate")
	shots := flag.Int("shots", 1000, "number of samples")
	seed := flag.Int64("seed", 1, "sampler seed")
	rounds := flag.Int("rounds", 0, "extraction rounds (0 = code default; circuit model)")
	maxErrs := flag.Int("max-logical-errors", 0, "stop after this many failures (0 = off)")

	bpIters := flag.Int("bp-iters", 100, "BP iteration cap")
	layered := flag.Bool("layered", false, "layered BP schedule")
	osdOrder := flag.Int("osd-order", 10, "OSD-CS order (bposd)")
	phi := flag.Int("phi", 50, "BP-SF candidate set size |Φ|")
	wmax := flag.Int("wmax", 10, "BP-SF maximum trial weight")
	ns := flag.Int("ns", 10, "BP-SF sampled trials per weight (0 = exhaustive)")
	trialWorkers := flag.Int("trial-workers", 0, "BP-SF lanes within one decode: they split a large initial BP, lane l takes trials l, l+P, …, and the first success in virtual time wins, so results depend on the lane count but not on timing (0 or 1 = serial; negative is an error)")
	windowRounds := flag.Int("window", 0,
		"sliding-window size in rounds: wrap the decoder in the streaming window scheduler (0 = whole-history decode)")
	commitRounds := flag.Int("commit", 1, "committed rounds per window (with -window)")
	workers := flag.Int("workers", runtime.NumCPU(),
		"Monte-Carlo shard workers (results are identical for any value)")
	flag.Parse()

	entry, ok := codes.Catalog()[*codeName]
	if !ok {
		log.Fatalf("unknown code %q (known: %v)", *codeName, codes.Names())
	}
	css, err := entry.Build()
	if err != nil {
		log.Fatal(err)
	}

	spec, err := resolveFlags(*p, *decoder, sim.Spec{
		BPIters:  *bpIters,
		Layered:  *layered,
		OSDOrder: *osdOrder,
		Phi:      *phi,
		WMax:     *wmax,
		NS:       *ns,
		Workers:  *trialWorkers,
		Window:   *windowRounds,
		Commit:   *commitRounds,
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := sim.Config{P: *p, Shots: *shots, Seed: *seed, MaxLogicalErrors: *maxErrs, Workers: *workers}
	var res *sim.Result
	switch *model {
	case "capacity":
		// rows-as-rounds layout for -window (the zero Layout default)
		res, err = sim.RunCapacity(css, spec.NewDecoder, cfg)
	case "circuit":
		r := *rounds
		if r == 0 {
			r = entry.Rounds
		}
		// window the circuit problem along the memory-experiment rounds
		if spec.Window > 0 {
			spec.Layout = window.MemexpLayout(css, r)
		}
		circ, berr := memexp.Build(css, r, memexp.Uniform())
		if berr != nil {
			log.Fatal(berr)
		}
		var d *dem.DEM
		d, err = dem.Extract(circ)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("DEM: %d detectors, %d mechanisms\n", d.NumDets, d.NumMechs())
		// word-parallel Pauli-frame sampling of the circuit itself
		res, err = sim.RunCircuitFrames(circ, d, r, spec.NewDecoder, cfg)
	default:
		log.Fatalf("unknown model %q", *model)
	}
	if err != nil {
		log.Fatal(err)
	}

	tb := sim.NewTable("decoder", "p", "shots", "failures", "LER", "LER/round", "avg iters", "avg ms", "post used")
	tb.Row(res.Decoder, res.P, res.Shots, res.Failures, res.LER, res.LERRound,
		res.AvgIters, float64(res.AvgTime.Microseconds())/1000, res.PostUsed)
	if err := tb.Write(os.Stdout); err != nil {
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
