// Package dem extracts detector error models from noisy stabilizer
// circuits and samples from them: the decoder-facing half of the Stim
// substitution.
//
// Every possible elementary fault (each Pauli a noise channel can inject,
// at each circuit position) gets its signature, the set of detectors and
// logical observables it flips, from one backward sweep of per-qubit
// detector sensitivities over the circuit (Extract). Faults with identical
// signatures are merged into one error mechanism whose probability is the
// odd-parity combination of its faults' probabilities. The result is the
// decoding problem the paper's circuit-level experiments operate on: a
// sparse detector×mechanism parity-check matrix H, an observable matrix,
// and per-mechanism priors — all parameterized by the physical error rate
// p, so one extraction serves every point of an error-rate sweep.
package dem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"bpsf/internal/circuit"
	"bpsf/internal/sparse"
)

// DEM is a detector error model.
type DEM struct {
	// NumDets and NumObs are the detector and observable counts of the
	// source circuit.
	NumDets, NumObs int
	// H is the NumDets × NumMechs sparse check matrix: H[d][m] = 1 iff
	// mechanism m flips detector d.
	H *sparse.Mat
	// Obs is the NumObs × NumMechs observable matrix.
	Obs *sparse.Mat
	// coeffs[m] maps probability coefficient c to the number of elementary
	// faults with probability c·p merged into mechanism m.
	coeffs []map[float64]int
}

// NumMechs returns the number of error mechanisms (columns of H).
func (d *DEM) NumMechs() int { return d.H.Cols() }

// Priors returns the per-mechanism error probabilities at physical error
// rate p: the probability that an odd number of the mechanism's merged
// faults fire, ½(1 − Π(1−2·cᵢ·p)).
//
// Coefficient classes are folded in ascending-coefficient order: float
// multiplication is not associative, so iterating the class map directly
// would let Go's randomized map order perturb priors by an ulp between
// calls — enough to regroup the sampler's equal-probability classes and
// derail shot-stream determinism.
func (d *DEM) Priors(p float64) []float64 {
	out := make([]float64, d.NumMechs())
	var cs []float64
	for m, classes := range d.coeffs {
		cs = cs[:0]
		for c := range classes {
			cs = append(cs, c)
		}
		sort.Float64s(cs)
		prod := 1.0
		for _, c := range cs {
			q := c * p
			if q > 0.5 {
				q = 0.5
			}
			prod *= math.Pow(1-2*q, float64(classes[c]))
		}
		out[m] = (1 - prod) / 2
	}
	return out
}

// MechanismFaults returns the number of elementary faults merged into
// mechanism m (introspection for tests and tools).
func (d *DEM) MechanismFaults(m int) int {
	total := 0
	for _, count := range d.coeffs[m] {
		total += count
	}
	return total
}

// Extract builds the DEM of c. Detectors and observables must already be
// declared on the circuit. Faults that flip nothing are dropped. It returns
// an error if a fault flips an observable without flipping any detector
// (an undetectable logical error — a symptom of a malformed experiment).
//
// One backward sweep over c.Ops keeps, per qubit, the signature an X and a
// Z component injected at the current position would flip: bitsets over
// the detectors, then the observables. A fault's signature is the XOR of
// at most four such rows, read at its noise op. Faults are met in reverse
// order, so the last fault a mechanism absorbs is its first in forward
// order; mechanisms are numbered by the rank of that fault, as a forward
// enumeration would number them.
func Extract(c *circuit.Circuit) (*DEM, error) {
	nd, no := len(c.Detectors), len(c.Observables)
	w := (nd + no + 63) / 64

	// measBits[m] lists the signature bits (detector d, observable nd+o)
	// whose parity includes measurement m.
	measBits := make([][]int32, c.NumMeas)
	for d, meas := range c.Detectors {
		for _, m := range meas {
			measBits[m] = append(measBits[m], int32(d))
		}
	}
	for o, meas := range c.Observables {
		for _, m := range meas {
			measBits[m] = append(measBits[m], int32(nd+o))
		}
	}

	// sx and sz hold one w-word row per qubit: what an X (Z) component on
	// that qubit, injected after the ops not yet swept, flips.
	sx := make([]uint64, c.NumQubits*w)
	sz := make([]uint64, c.NumQubits*w)
	row := func(s []uint64, q int) []uint64 { return s[q*w : (q+1)*w] }
	flipMeas := func(r []uint64, m int) {
		for _, b := range measBits[m] {
			r[b>>6] ^= 1 << (b & 63)
		}
	}

	// Mechanisms in order of discovery. Signatures are kept sparse (a
	// signature has a few bits of nd+no): mechanism m's ascending bits are
	// supp[off[m]:off[m+1]], and its little-endian bytes key index.
	index := make(map[string]int)
	var supp []int32
	off := []int{0}
	var coeffs []map[float64]int
	var first []int // rank of each mechanism's earliest fault, the last met
	var undetected error
	sig := make([]uint64, w)
	var key []byte
	var rows [4][]uint64 // X and Z rows of the noise op's Q0, then Q1
	rank := 0
	// addFault merges the fault whose Pauli selects rows (bit k: rows[k]).
	addFault := func(opIdx, sel int, coeff float64) {
		rank--
		clear(sig)
		for k := 0; sel != 0; k, sel = k+1, sel>>1 {
			if sel&1 != 0 {
				xorInto(sig, rows[k])
			}
		}
		start := len(supp)
		for k, x := range sig {
			for ; x != 0; x &= x - 1 {
				supp = append(supp, int32(k*64+bits.TrailingZeros64(x)))
			}
		}
		set := supp[start:]
		switch {
		case len(set) == 0:
			return
		case set[0] >= int32(nd):
			obs := make([]int, len(set))
			for i, b := range set {
				obs[i] = int(b) - nd
			}
			undetected = fmt.Errorf("dem: fault at op %d flips observables %v with no detector", opIdx, obs)
			supp = supp[:start]
			return
		}
		key = key[:0]
		for _, b := range set {
			key = binary.LittleEndian.AppendUint32(key, uint32(b))
		}
		mi, ok := index[string(key)]
		if ok {
			supp = supp[:start]
		} else {
			mi = len(coeffs)
			index[string(key)] = mi
			off = append(off, len(supp))
			coeffs = append(coeffs, make(map[float64]int))
			first = append(first, 0)
		}
		first[mi] = rank
		coeffs[mi][coeff]++
	}

	// Each noise op's faults are met in reverse Pauli order: the forward
	// order is X, Y, Z for depolarize1 and the pairs (a on Q0, b on Q1),
	// a, b = 0..3 (bit 0 = X, bit 1 = Z), identity skipped, for depolarize2.
	for i := len(c.Ops) - 1; i >= 0; i-- {
		op := &c.Ops[i]
		switch op.Type {
		case circuit.OpH:
			x, z := row(sx, op.Q0), row(sz, op.Q0)
			for k := range x {
				x[k], z[k] = z[k], x[k]
			}
		case circuit.OpCX:
			xorInto(row(sx, op.Q0), row(sx, op.Q1))
			xorInto(row(sz, op.Q1), row(sz, op.Q0))
		case circuit.OpM:
			flipMeas(row(sx, op.Q0), op.Meas)
			clear(row(sz, op.Q0))
		case circuit.OpMR:
			clear(row(sx, op.Q0))
			flipMeas(row(sx, op.Q0), op.Meas)
			clear(row(sz, op.Q0))
		case circuit.OpR:
			clear(row(sx, op.Q0))
			clear(row(sz, op.Q0))
		case circuit.OpNoiseX, circuit.OpNoiseZ, circuit.OpNoiseDep1:
			rows[0], rows[1] = row(sx, op.Q0), row(sz, op.Q0)
			switch op.Type {
			case circuit.OpNoiseX:
				addFault(i, 1, op.Scale)
			case circuit.OpNoiseZ:
				addFault(i, 2, op.Scale)
			default:
				for _, sel := range [3]int{2, 3, 1} { // Z, Y, X
					addFault(i, sel, op.Scale/3)
				}
			}
		case circuit.OpNoiseDep2:
			rows[0], rows[1] = row(sx, op.Q0), row(sz, op.Q0)
			rows[2], rows[3] = row(sx, op.Q1), row(sz, op.Q1)
			for sel := 15; sel >= 1; sel-- {
				addFault(i, sel>>2|(sel&3)<<2, op.Scale/15)
			}
		}
	}
	if undetected != nil {
		return nil, undetected // the earliest such fault, met last
	}

	// H and Obs in compressed columns, mechanisms in first-fault order.
	nm := len(coeffs)
	order := make([]int, nm)
	for m := range order {
		order[m] = m
	}
	slices.SortFunc(order, func(a, b int) int { return first[a] - first[b] })
	hPtr, oPtr := make([]int, 1, nm+1), make([]int, 1, nm+1)
	hIdx, oIdx := make([]int, 0, len(supp)), make([]int, 0)
	sorted := make([]map[float64]int, nm)
	for n, m := range order {
		for _, b := range supp[off[m]:off[m+1]] {
			if int(b) < nd {
				hIdx = append(hIdx, int(b))
			} else {
				oIdx = append(oIdx, int(b)-nd)
			}
		}
		hPtr = append(hPtr, len(hIdx))
		oPtr = append(oPtr, len(oIdx))
		sorted[n] = coeffs[m]
	}
	return &DEM{
		NumDets: nd,
		NumObs:  no,
		H:       sparse.FromCols(nd, hPtr, hIdx),
		Obs:     sparse.FromCols(no, oPtr, oIdx),
		coeffs:  sorted,
	}, nil
}

func xorInto(dst, src []uint64) {
	for k, x := range src {
		dst[k] ^= x
	}
}
