// Package memexp generates noisy syndrome-extraction memory experiments
// for CSS and CSS-type subsystem codes: the circuit-level noise model of
// the paper's §V-B.
//
// A Z-basis memory experiment over T rounds:
//
//	              ┌ repeat T ──────────────────────────────┐
//	R(all) ──────▶ X-check extraction ▶ Z-check extraction ─▶ M(data)
//
// Each check row of the code's measured matrices (GX/GZ; gauge generators
// for subsystem codes) gets an ancilla measured every round. Detectors
// compare stabilizer outcomes between consecutive rounds; for subsystem
// codes a stabilizer outcome is the XOR of several gauge outcomes (the
// code's CombX/CombZ maps), which is exactly how the SHYPS code is decoded.
// Observables are the bare logical-Z operators read from the final
// transversal data measurement.
//
// Noise follows the paper's uniform circuit-level model: depolarizing noise
// after every gate, bit-flip noise before every measurement and after every
// reset, all sharing the physical error rate parameter p (scales are
// configurable).
package memexp

import (
	"fmt"

	"bpsf/internal/circuit"
	"bpsf/internal/code"
)

// Noise holds the per-location scale factors applied to the physical error
// rate p. A zero field disables that noise location.
type Noise struct {
	// AfterGate1 scales the depolarize1 after each single-qubit gate.
	AfterGate1 float64
	// AfterGate2 scales the depolarize2 after each two-qubit gate.
	AfterGate2 float64
	// BeforeMeas scales the bit-flip before each measurement.
	BeforeMeas float64
	// AfterReset scales the bit-flip after each reset.
	AfterReset float64
}

// Uniform returns the paper's uniform circuit-level noise model: every
// location fails with probability p.
func Uniform() Noise {
	return Noise{AfterGate1: 1, AfterGate2: 1, BeforeMeas: 1, AfterReset: 1}
}

// Noiseless returns a noise-free configuration (for structural tests).
func Noiseless() Noise { return Noise{} }

// Build generates the memory-experiment circuit for css over the given
// number of rounds. It is a pure function of its arguments — safe to call
// from concurrent grid cells of the parallel experiment sweeps (the
// experiments layer deduplicates identical builds through its DEM cache).
func Build(css *code.CSS, rounds int, nz Noise) (*circuit.Circuit, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("memexp: rounds must be ≥1, got %d", rounds)
	}
	n := css.N
	mx, mzc := css.GX.Rows(), css.GZ.Rows()
	c := circuit.New(n + mx + mzc)
	xAnc := func(j int) int { return n + j }
	zAnc := func(j int) int { return n + mx + j }

	dep1 := func(q int) {
		if nz.AfterGate1 > 0 {
			c.Dep1(nz.AfterGate1, q)
		}
	}
	dep2 := func(a, b int) {
		if nz.AfterGate2 > 0 {
			c.Dep2(nz.AfterGate2, a, b)
		}
	}
	preMeas := func(q int) {
		if nz.BeforeMeas > 0 {
			c.NoiseX(nz.BeforeMeas, q)
		}
	}
	postReset := func(q int) {
		if nz.AfterReset > 0 {
			c.NoiseX(nz.AfterReset, q)
		}
	}

	// initialization
	for q := 0; q < n; q++ {
		c.R(q)
		postReset(q)
	}
	for j := 0; j < mx; j++ {
		c.R(xAnc(j))
		postReset(xAnc(j))
	}
	for j := 0; j < mzc; j++ {
		c.R(zAnc(j))
		postReset(zAnc(j))
	}

	xMeas := make([][]int, rounds)
	zMeas := make([][]int, rounds)
	for r := 0; r < rounds; r++ {
		xMeas[r] = make([]int, mx)
		zMeas[r] = make([]int, mzc)
		// X-type checks: |+⟩ prep via H, CX(anc→data), H, MR
		for j := 0; j < mx; j++ {
			a := xAnc(j)
			c.H(a)
			dep1(a)
			for _, q := range css.GX.RowSupport(j) {
				c.CX(a, int(q))
				dep2(a, int(q))
			}
			c.H(a)
			dep1(a)
			preMeas(a)
			xMeas[r][j] = c.MR(a)
			if r != rounds-1 {
				postReset(a)
			}
		}
		// Z-type checks: CX(data→anc), MR
		for j := 0; j < mzc; j++ {
			a := zAnc(j)
			for _, q := range css.GZ.RowSupport(j) {
				c.CX(int(q), a)
				dep2(int(q), a)
			}
			preMeas(a)
			zMeas[r][j] = c.MR(a)
			if r != rounds-1 {
				postReset(a)
			}
		}
	}

	// final transversal Z measurement of the data
	dataMeas := make([]int, n)
	for q := 0; q < n; q++ {
		preMeas(q)
		dataMeas[q] = c.M(q)
	}

	// detectors: Z-type stabilizers rounds 0..T-1 (round 0 is deterministic
	// because the data starts in |0…0⟩), plus the final data-vs-last-round
	// comparison; X-type stabilizers rounds (0,1)..(T-2,T-1).
	numZStab := css.CombZ.Rows()
	numXStab := css.CombX.Rows()
	for r := 0; r < rounds; r++ {
		for sIdx := 0; sIdx < numZStab; sIdx++ {
			var meas []int
			for _, j := range css.CombZ.RowSupport(sIdx) {
				meas = append(meas, zMeas[r][j])
			}
			if r > 0 {
				for _, j := range css.CombZ.RowSupport(sIdx) {
					meas = append(meas, zMeas[r-1][j])
				}
			}
			c.Detector(meas...)
		}
		if r > 0 {
			for sIdx := 0; sIdx < numXStab; sIdx++ {
				var meas []int
				for _, j := range css.CombX.RowSupport(sIdx) {
					meas = append(meas, xMeas[r][j], xMeas[r-1][j])
				}
				c.Detector(meas...)
			}
		}
	}
	for sIdx := 0; sIdx < numZStab; sIdx++ {
		var meas []int
		for _, q := range css.HZ.RowSupport(sIdx) {
			meas = append(meas, dataMeas[q])
		}
		for _, j := range css.CombZ.RowSupport(sIdx) {
			meas = append(meas, zMeas[rounds-1][j])
		}
		c.Detector(meas...)
	}

	// observables: bare logical Z from final data measurements
	for i := 0; i < css.LZ.Rows(); i++ {
		var meas []int
		for _, q := range css.LZ.RowSupport(i) {
			meas = append(meas, dataMeas[q])
		}
		c.Observable(meas...)
	}
	return c, nil
}
