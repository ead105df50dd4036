// Package osd implements ordered-statistics decoding (OSD) post-processing
// for belief propagation, following Roffe et al., "Decoding across the
// quantum low-density parity-check code landscape" (the paper's BP-OSD
// baseline, method OSD-CS).
//
// Given a parity-check matrix H, a syndrome s, and per-bit reliability
// information from BP (posterior LLRs), OSD:
//
//  1. ranks columns from least to most reliable,
//  2. Gaussian-eliminates H in that column order to find a full-rank pivot
//     set ("information set") among the most suspicious bits,
//  3. solves for the pivot bits with all non-pivot bits zero (OSD-0), and
//  4. optionally sweeps low-weight patterns on the non-pivot block,
//     re-solving the pivot bits for each, keeping the lowest-weight
//     solution (OSD-E exhaustive / OSD-CS combination-sweep).
//
// The elimination is the O(N³)-class step the paper's BP-SF decoder avoids;
// the per-pattern re-solve here is only an O(rank/64)-word XOR against the
// cached RREF, so the sweep itself is cheap.
package osd

import (
	"fmt"
	"math/bits"
	"sort"

	"bpsf/internal/gf2"
	"bpsf/internal/sparse"
)

// Method selects the pattern sweep strategy. The zero Method is OSDCS,
// the paper's baseline.
type Method int

const (
	// OSDCS sweeps all weight-1 patterns over the whole non-pivot block
	// plus all weight-2 patterns within the Order least-reliable non-pivot
	// columns (combination sweep; the paper's "OSD-CS of order 10").
	OSDCS Method = iota
	// OSD0 uses the base solution only.
	OSD0
	// OSDE sweeps all 2^Order patterns over the Order least-reliable
	// non-pivot columns (exhaustive).
	OSDE
)

func (m Method) String() string {
	switch m {
	case OSD0:
		return "OSD-0"
	case OSDE:
		return "OSD-E"
	case OSDCS:
		return "OSD-CS"
	default:
		return "OSD-?"
	}
}

// Config parameterizes an OSD decoder.
type Config struct {
	Method Method
	// Order is the sweep depth: λ for OSDCS, w for OSDE. Ignored for OSD0.
	Order int
}

// Result reports an OSD decode.
type Result struct {
	// OK is false when the syndrome is outside the column space of H (no
	// solution exists).
	OK bool
	// ErrHat is the chosen error pattern (valid when OK).
	ErrHat gf2.Vec
	// Weight is the Hamming weight of ErrHat.
	Weight int
	// Patterns is the number of candidate patterns examined (including the
	// base OSD-0 solution).
	Patterns int
}

// Decoder performs OSD against a fixed parity-check matrix.
type Decoder struct {
	h      *sparse.Mat
	hDense *gf2.Mat
	cfg    Config
}

// New builds an OSD decoder for h.
func New(h *sparse.Mat, cfg Config) *Decoder {
	if cfg.Order < 0 {
		panic(fmt.Sprintf("osd: negative order %d", cfg.Order))
	}
	return &Decoder{h: h, hDense: h.ToDense(), cfg: cfg}
}

// Config returns the decoder configuration.
func (d *Decoder) Config() Config { return d.cfg }

// Decode runs OSD on syndrome s with per-bit posterior LLRs llr (lower =
// less reliable = more likely in error). llr must have length H.Cols().
func (d *Decoder) Decode(s gf2.Vec, llr []float64) Result {
	n := d.h.Cols()
	m := d.h.Rows()
	if len(llr) != n {
		panic("osd: llr length mismatch")
	}
	if s.Len() != m {
		panic("osd: syndrome length mismatch")
	}

	// 1. reliability order: most likely in error first (ascending LLR)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return llr[order[a]] < llr[order[b]] })

	// 2. eliminate [H | s] in that column order
	aug := gf2.HStack(d.hDense, colVec(s))
	e := gf2.RowReduce(aug, true, false, order)
	rank := e.Rank

	// consistency: rows at/below rank must not carry a syndrome bit
	for i := rank; i < m; i++ {
		if e.R.Get(i, n) {
			return Result{OK: false}
		}
	}

	isPivot := make([]bool, n)
	for _, col := range e.PivotCols {
		isPivot[col] = true
	}
	// non-pivot columns in reliability order (most suspicious first)
	nonPivot := make([]int, 0, n-rank)
	for _, col := range order {
		if !isPivot[col] {
			nonPivot = append(nonPivot, col)
		}
	}

	// base pivot solution: e_P[i] = s̃[i]
	words := (rank + 63) / 64
	base := make([]uint64, words)
	for i := 0; i < rank; i++ {
		if e.R.Get(i, n) {
			base[i/64] |= 1 << (uint(i) % 64)
		}
	}

	build := func(pivotBits []uint64, pattern []int) gf2.Vec {
		out := gf2.NewVec(n)
		for i, col := range e.PivotCols {
			if pivotBits[i/64]>>(uint(i)%64)&1 == 1 {
				out.Set(col, true)
			}
		}
		for _, col := range pattern {
			out.Set(col, true)
		}
		return out
	}

	if d.cfg.Method == OSD0 || len(nonPivot) == 0 {
		sol := build(base, nil)
		return Result{OK: true, ErrHat: sol, Weight: sol.Weight(), Patterns: 1}
	}

	// 3. cache the RREF restricted to pivot rows, per non-pivot column
	colBits := make(map[int][]uint64, len(nonPivot))
	for _, col := range nonPivot {
		colBits[col] = make([]uint64, words)
	}
	for i := 0; i < rank; i++ {
		for _, j := range e.R.Row(i).Support() {
			if j < n && !isPivot[j] {
				colBits[j][i/64] |= 1 << (uint(i) % 64)
			}
		}
	}

	popcount := func(w []uint64) int {
		c := 0
		for _, x := range w {
			c += bits.OnesCount64(x)
		}
		return c
	}

	bestBits := base
	bestPattern := []int(nil)
	bestWeight := popcount(base)
	patterns := 1
	scratch := make([]uint64, words)

	try := func(pattern []int) {
		copy(scratch, base)
		for _, col := range pattern {
			cb := colBits[col]
			for w := range scratch {
				scratch[w] ^= cb[w]
			}
		}
		patterns++
		if w := popcount(scratch) + len(pattern); w < bestWeight {
			bestWeight = w
			bestBits = append([]uint64(nil), scratch...)
			bestPattern = append([]int(nil), pattern...)
		}
	}

	switch d.cfg.Method {
	case OSDE:
		// all subsets of the first Order non-pivot columns
		depth := minInt(d.cfg.Order, len(nonPivot))
		for mask := 1; mask < 1<<uint(depth); mask++ {
			var pattern []int
			for b := 0; b < depth; b++ {
				if mask>>uint(b)&1 == 1 {
					pattern = append(pattern, nonPivot[b])
				}
			}
			try(pattern)
		}
	case OSDCS:
		// weight-1 over the full non-pivot block
		for _, col := range nonPivot {
			try([]int{col})
		}
		// weight-2 within the first Order columns
		depth := minInt(d.cfg.Order, len(nonPivot))
		for a := 0; a < depth; a++ {
			for b := a + 1; b < depth; b++ {
				try([]int{nonPivot[a], nonPivot[b]})
			}
		}
	}

	sol := build(bestBits, bestPattern)
	return Result{OK: true, ErrHat: sol, Weight: sol.Weight(), Patterns: patterns}
}

func colVec(b gf2.Vec) *gf2.Mat {
	m := gf2.NewMat(b.Len(), 1)
	for _, i := range b.Support() {
		m.Set(i, 0, true)
	}
	return m
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
