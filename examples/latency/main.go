// Latency study in the style of the paper's Figures 14–16: measure the
// decode-time distribution of serial BP-SF against BP-OSD on the
// J144,12,12K code under circuit-level noise, and derive the P-worker
// schedule model and the GPU estimates from BP-SF's per-trial records.
//
//	go run ./examples/latency -shots 200 -p 0.003 -rounds 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"bpsf"
)

func main() {
	rounds := flag.Int("rounds", 4, "syndrome-extraction rounds")
	shots := flag.Int("shots", 200, "samples")
	p := flag.Float64("p", 0.003, "physical error rate")
	flag.Parse()

	code, err := bpsf.NewCode("bb144")
	if err != nil {
		log.Fatal(err)
	}
	d, err := bpsf.BuildMemoryDEM(code, *rounds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, %d rounds, %d mechanisms, p=%g\n\n", code.Name, *rounds, d.NumMechs(), *p)

	// BP-OSD baseline, measured
	osdMk := func(h *bpsf.Matrix, priors []float64) (bpsf.Decoder, error) {
		return bpsf.NewBPOSDDecoder(h, priors,
			bpsf.BPConfig{MaxIter: 1000},
			bpsf.OSDConfig{Method: bpsf.OSDCS, Order: 10}), nil
	}
	osdRes, err := bpsf.RunCircuit(d, *rounds, osdMk, bpsf.MCConfig{
		P: *p, Shots: *shots, Seed: 3, KeepRecords: true})
	if err != nil {
		log.Fatal(err)
	}

	// serial BP-SF: its per-trial records, which stop at the first
	// success, feed the schedule model and the GPU estimates
	sfMk := func(h *bpsf.Matrix, priors []float64) (bpsf.Decoder, error) {
		return bpsf.NewBPSFDecoder(h, priors, bpsf.BPSFConfig{
			Init:    bpsf.BPConfig{MaxIter: 100},
			Trial:   bpsf.BPConfig{MaxIter: 100},
			PhiSize: 50,
			WMax:    10,
			NS:      10,
			Policy:  bpsf.Sampled,
		})
	}
	sfRes, err := bpsf.RunCircuit(d, *rounds, sfMk, bpsf.MCConfig{
		P: *p, Shots: *shots, Seed: 3, KeepRecords: true})
	if err != nil {
		log.Fatal(err)
	}

	rows, err := bpsf.LatencyStudy(osdRes, sfRes, []int{2, 4, 8})
	if err != nil {
		log.Fatal(err)
	}
	if err := bpsf.WriteLatency(os.Stdout, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLER/round: BP-OSD %.2e, BP-SF %.2e (same seed)\n", osdRes.LERRound, sfRes.LERRound)
}
