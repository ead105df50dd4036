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
	// coeffs is the ascending table of the distinct probability
	// coefficients of the DEM's faults. Mechanism m merged classes[k].n
	// elementary faults with probability coeffs[classes[k].c]·p for each k
	// in classPtr[m]..classPtr[m+1], in ascending coefficient order.
	coeffs   []float64
	classPtr []int32
	classes  []class
}

// class counts a mechanism's faults of one probability coefficient: n
// faults of coefficient coeffs[c].
type class struct{ c, n int32 }

// NumMechs returns the number of error mechanisms (columns of H).
func (d *DEM) NumMechs() int { return d.H.Cols() }

// Priors returns the per-mechanism error probabilities at physical error
// rate p: the probability that an odd number of the mechanism's merged
// faults fire, ½(1 − Π(1−2·cᵢ·p)).
//
// Coefficient classes are folded in ascending-coefficient order, as they
// are stored: float multiplication is not associative, and a prior that
// moved by an ulp could regroup the sampler's equal-probability classes
// and derail shot-stream determinism.
func (d *DEM) Priors(p float64) []float64 {
	// base[c] is 1−2·q for class c's fault probability q = coeffs[c]·p
	base := make([]float64, len(d.coeffs))
	for c, coeff := range d.coeffs {
		q := coeff * p
		if q > 0.5 {
			q = 0.5
		}
		base[c] = 1 - 2*q
	}
	out := make([]float64, d.NumMechs())
	for m := range out {
		prod := 1.0
		for _, cl := range d.classes[d.classPtr[m]:d.classPtr[m+1]] {
			prod *= math.Pow(base[cl.c], float64(cl.n))
		}
		out[m] = (1 - prod) / 2
	}
	return out
}

// MechanismFaults returns the number of elementary faults merged into
// mechanism m (introspection for tests and tools).
func (d *DEM) MechanismFaults(m int) int {
	total := 0
	for _, cl := range d.classes[d.classPtr[m]:d.classPtr[m+1]] {
		total += int(cl.n)
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
	var first []int // rank of each mechanism's earliest fault, the last met
	var undetected error

	// Coefficient classes are numbered in order of discovery (classOf).
	// Mechanism m's classes form a chain through pairs from last[m], each
	// link pointing to the one added before it (-1 ends the chain).
	classOf := make(map[float64]int32)
	type link struct{ c, n, prev int32 }
	var pairs []link
	var last []int32
	classID := func(coeff float64) int32 {
		c, ok := classOf[coeff]
		if !ok {
			c = int32(len(classOf))
			classOf[coeff] = c
		}
		return c
	}
	sig := make([]uint64, w)
	var key []byte
	var rows [4][]uint64 // X and Z rows of the noise op's Q0, then Q1
	rank := 0
	// addFault merges the fault whose Pauli selects rows (bit k: rows[k])
	// and whose probability coefficient is class c.
	addFault := func(opIdx, sel int, c int32) {
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
			mi = len(first)
			index[string(key)] = mi
			off = append(off, len(supp))
			first = append(first, 0)
			last = append(last, -1)
		}
		first[mi] = rank
		for k := last[mi]; ; k = pairs[k].prev {
			if k < 0 {
				pairs = append(pairs, link{c, 1, last[mi]})
				last[mi] = int32(len(pairs) - 1)
				break
			}
			if pairs[k].c == c {
				pairs[k].n++
				break
			}
		}
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
				addFault(i, 1, classID(op.Scale))
			case circuit.OpNoiseZ:
				addFault(i, 2, classID(op.Scale))
			default:
				c := classID(op.Scale / 3)
				for _, sel := range [3]int{2, 3, 1} { // Z, Y, X
					addFault(i, sel, c)
				}
			}
		case circuit.OpNoiseDep2:
			rows[0], rows[1] = row(sx, op.Q0), row(sz, op.Q0)
			rows[2], rows[3] = row(sx, op.Q1), row(sz, op.Q1)
			c := classID(op.Scale / 15)
			for sel := 15; sel >= 1; sel-- {
				addFault(i, sel>>2|(sel&3)<<2, c)
			}
		}
	}
	if undetected != nil {
		return nil, undetected // the earliest such fault, met last
	}

	// The coefficient table: the classes some mechanism merged, ascending
	// (a noise op with no detectable fault leaves its class unused), and
	// each class's rank in it.
	used := make([]bool, len(classOf))
	for _, l := range pairs {
		used[l.c] = true
	}
	var coeffs []float64
	for coeff, c := range classOf {
		if used[c] {
			coeffs = append(coeffs, coeff)
		}
	}
	slices.Sort(coeffs)
	rankOf := make([]int32, len(classOf))
	for r, coeff := range coeffs {
		rankOf[classOf[coeff]] = int32(r)
	}

	// H and Obs in compressed columns, mechanisms in first-fault order,
	// each with its classes in ascending coefficient order.
	nm := len(first)
	order := make([]int, nm)
	for m := range order {
		order[m] = m
	}
	slices.SortFunc(order, func(a, b int) int { return first[a] - first[b] })
	nDets := 0 // detector bits over all signatures
	for _, b := range supp {
		if b < int32(nd) {
			nDets++
		}
	}
	hPtr, oPtr := make([]int, 1, nm+1), make([]int, 1, nm+1)
	hIdx, oIdx := make([]int32, 0, nDets), make([]int32, 0, len(supp)-nDets)
	classPtr, classes := make([]int32, 1, nm+1), make([]class, 0, len(pairs))
	for _, m := range order {
		for _, b := range supp[off[m]:off[m+1]] {
			if b < int32(nd) {
				hIdx = append(hIdx, b)
			} else {
				oIdx = append(oIdx, b-int32(nd))
			}
		}
		hPtr = append(hPtr, len(hIdx))
		oPtr = append(oPtr, len(oIdx))
		start := len(classes)
		for k := last[m]; k >= 0; k = pairs[k].prev {
			classes = append(classes, class{rankOf[pairs[k].c], pairs[k].n})
		}
		slices.SortFunc(classes[start:], func(a, b class) int { return int(a.c - b.c) })
		classPtr = append(classPtr, int32(len(classes)))
	}
	return &DEM{
		NumDets:  nd,
		NumObs:   no,
		H:        sparse.FromCols(nd, hPtr, hIdx),
		Obs:      sparse.FromCols(no, oPtr, oIdx),
		coeffs:   coeffs,
		classPtr: classPtr,
		classes:  classes,
	}, nil
}

func xorInto(dst, src []uint64) {
	for k, x := range src {
		dst[k] ^= x
	}
}
