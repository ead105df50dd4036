package window

import "bpsf/internal/code"

// MemexpLayout is the round layout of the memory-experiment detector
// ordering (internal/memexp.Build): round 0 carries the Z-stabilizer
// detectors, rounds 1..T−1 carry Z- then X-stabilizer detectors, and the
// final transversal data measurement contributes one more Z-stabilizer
// block, treated as an extra layout round T. The layout therefore has
// rounds+1 rounds and memexp's full detector count; it is what circuit
// -level callers hand to New (or as sim.Spec.Layout).
func MemexpLayout(css *code.CSS, rounds int) Layout {
	numZ := css.CombZ.Rows()
	numX := css.CombX.Rows()
	starts := make([]int, rounds+1)
	starts[0] = 0
	for r := 1; r < rounds; r++ {
		starts[r] = starts[r-1] + numZ
		if r > 1 {
			starts[r] += numX
		}
	}
	starts[rounds] = starts[rounds-1] + numZ + numX
	if rounds == 1 {
		starts[rounds] = numZ
	}
	return Layout{Starts: starts, NumDets: starts[rounds] + numZ}
}
