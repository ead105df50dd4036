// Command bpsf-dem builds a code's syndrome-extraction circuit and detector
// error model and prints their statistics: qubit/gate/measurement counts,
// detector and observable counts, mechanism counts, and the Tanner-graph
// profile of the DEM check matrix. Useful for validating the circuit-level
// substrate and for comparing against the mechanism counts reported in the
// paper (Fig. 13).
//
// Usage:
//
//	bpsf-dem -code bb144 [-rounds 12] [-p 0.003] [-seed 1] [-shots 200]
//	bpsf-dem -code rsurf3 -decoder uf        # decode the sampled shots too
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/memexp"
	"bpsf/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bpsf-dem: ")
	codeName := flag.String("code", "bb144", "code: "+fmt.Sprint(codes.Names()))
	rounds := flag.Int("rounds", 0, "extraction rounds (0 = code default)")
	p := flag.Float64("p", 0.003, "physical error rate for the prior and shot summaries")
	seed := flag.Int64("seed", 1, "sampler seed")
	shots := flag.Int("shots", 200, "sampled shots for the empirical summary (0 = skip)")
	decoder := flag.String("decoder", "",
		"decode the sampled shots with a default-configured decoder and report convergence; one of "+
			fmt.Sprint(sim.DecoderNames())+" (empty = skip)")
	flag.Parse()

	if err := sim.CheckP(*p); err != nil {
		log.Fatal(err)
	}

	var mkDecoder sim.Factory
	if *decoder != "" {
		spec, err := sim.DecoderSpec(*decoder)
		if err != nil {
			log.Fatal(err)
		}
		mkDecoder = spec.NewDecoder
	}

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

	fmt.Printf("code: %s  [[%d,%d,%d]]\n", css.Name, css.N, css.K, css.D)
	fmt.Printf("checks: X=%d Z=%d (measured: %d/%d)\n", css.HX.Rows(), css.HZ.Rows(), css.GX.Rows(), css.GZ.Rows())

	t0 := time.Now()
	circ, err := memexp.Build(css, r, memexp.Uniform())
	if err != nil {
		log.Fatal(err)
	}
	st := circ.Stats()
	fmt.Printf("circuit (%d rounds): qubits=%d gates=%d noiseOps=%d meas=%d detectors=%d observables=%d  [built in %v]\n",
		r, st.Qubits, st.Gates, st.NoiseOps, st.Measurements, st.Detectors, st.Observables, time.Since(t0).Round(time.Millisecond))

	t1 := time.Now()
	d, err := dem.Extract(circ)
	if err != nil {
		log.Fatal(err)
	}
	extractTime := time.Since(t1)

	fmt.Printf("DEM: detectors=%d observables=%d mechanisms=%d nnz=%d  [extracted in %v]\n",
		d.NumDets, d.NumObs, d.NumMechs(), d.H.NNZ(), extractTime.Round(time.Millisecond))

	maxCol, maxRow := 0, 0
	for m := 0; m < d.NumMechs(); m++ {
		if w := d.H.ColWeight(m); w > maxCol {
			maxCol = w
		}
	}
	for dt := 0; dt < d.NumDets; dt++ {
		if w := d.H.RowWeight(dt); w > maxRow {
			maxRow = w
		}
	}
	fmt.Printf("DEM Tanner profile: max column weight=%d, max row weight=%d\n", maxCol, maxRow)

	priors := d.Priors(*p)
	var sum float64
	for _, q := range priors {
		sum += q
	}
	fmt.Printf("priors at p=%g: expected fired mechanisms per shot=%.2f\n", *p, sum)

	if *shots > 0 {
		var dec sim.Decoder
		if mkDecoder != nil {
			dec, err = mkDecoder(d.H, priors)
			if err != nil {
				log.Fatal(err)
			}
		}
		sampler := dem.NewSampler(d, *p, *seed)
		var mechs, synWeight, quiet int
		var converged int
		var decodeTime time.Duration
		for i := 0; i < *shots; i++ {
			syndrome, _ := sampler.SampleShared()
			mechs += len(sampler.Mechs())
			w := syndrome.Weight()
			synWeight += w
			if w == 0 {
				quiet++
			}
			if dec != nil {
				// the decode service's per-request seed derivation
				// (service.RequestSeed), without linking the service
				sim.Reseed(dec, sim.ShardSeed(*seed, i))
				out := dec.Decode(syndrome)
				if out.Success {
					converged++
				}
				decodeTime += out.Time
			}
		}
		n := float64(*shots)
		fmt.Printf("sampled %d shots (seed %d): avg fired mechanisms=%.2f, avg syndrome weight=%.2f, zero-syndrome shots=%.1f%%\n",
			*shots, *seed, float64(mechs)/n, float64(synWeight)/n, 100*float64(quiet)/n)
		if dec != nil {
			fmt.Printf("decoder %s: %d/%d syndromes satisfied (%.1f%%), avg decode %.4f ms\n",
				dec.Name(), converged, *shots, 100*float64(converged)/n,
				float64(decodeTime.Nanoseconds())/n/1e6)
		}
	}
	os.Exit(0)
}
