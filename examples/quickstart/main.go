// Quickstart: build the J144,12,12K "gross" code, inject a code-capacity
// error, and decode it with BP-SF, printing each step of Algorithm 1.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bpsf"
)

func main() {
	code, err := bpsf.NewCode("bb144")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("code: %s — n=%d data qubits, k=%d logical qubits, distance %d\n",
		code.Name, code.N, code.K, code.D)

	// BP-SF: short initial BP, |Φ|=20 oscillating-bit candidates, all
	// weight-1 syndrome flips, decoded speculatively on four lanes.
	const p, lanes = 0.03, 4
	dec, err := bpsf.NewBPSFRaw(code.HZ, bpsf.UniformPriors(code.N, bpsf.DepolarizingMarginal(p)),
		bpsf.BPSFConfig{
			Init:    bpsf.BPConfig{MaxIter: 8},
			Trial:   bpsf.BPConfig{MaxIter: 100},
			PhiSize: 20,
			WMax:    1,
			Policy:  bpsf.Exhaustive,
			Workers: lanes,
		})
	if err != nil {
		log.Fatal(err)
	}

	// Decode random X errors until both code paths have been shown: an
	// easy syndrome the initial BP solves, and a hard one that needs the
	// oscillation-guided syndrome-flip stage.
	rng := rand.New(rand.NewSource(7))
	shownEasy, shownHard := false, false
	for shot := 0; !(shownEasy && shownHard) && shot < 200; shot++ {
		errVec := bpsf.NewVec(code.N)
		for i := 0; i < 10; i++ {
			errVec.Set(rng.Intn(code.N), true)
		}
		syndrome := code.SyndromeOfX(errVec)
		res := dec.Decode(syndrome)
		if res.UsedPostProcessing && shownHard {
			continue
		}
		if !res.UsedPostProcessing && shownEasy {
			continue
		}

		fmt.Printf("\nshot %d: X error weight %d → syndrome weight %d\n",
			shot, errVec.Weight(), syndrome.Weight())
		fmt.Printf("  initial BP: %d iterations, converged=%v\n",
			res.InitIterations, !res.UsedPostProcessing)
		if res.UsedPostProcessing {
			shownHard = true
			fmt.Printf("  oscillation candidates Φ: %v\n", res.Candidates)
			fmt.Printf("  speculative stage: %d trial syndromes, winner=%d\n",
				res.Trials, res.WinningTrial)
		} else {
			shownEasy = true
		}
		if !res.Success {
			fmt.Println("  decoding failed (would count as a logical error)")
			continue
		}
		// The estimate always satisfies the original syndrome (flip-back
		// invariant), and the residual must not be a logical operator.
		if !code.SyndromeOfX(res.ErrHat).Equal(syndrome) {
			log.Fatal("estimate does not satisfy the syndrome")
		}
		residual := errVec.Clone()
		residual.Xor(res.ErrHat)
		fmt.Printf("  decoded: estimate weight %d, logical error=%v\n",
			res.ErrHat.Weight(), code.IsLogicalX(residual))
		fmt.Printf("  work: %d BP iterations; latency on %d lanes: %d steps\n",
			res.TotalIterations, lanes, res.Steps)
	}
}
