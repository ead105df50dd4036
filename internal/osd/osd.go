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
	"slices"

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
	// ErrHat is the chosen error pattern (valid when OK). It aliases the
	// decoder's buffer and is overwritten by the next Decode; Clone it to
	// keep it.
	ErrHat gf2.Vec
	// Weight is the Hamming weight of ErrHat.
	Weight int
	// Patterns is the number of candidate patterns examined (including the
	// base OSD-0 solution).
	Patterns int
}

// Decoder performs OSD against a fixed parity-check matrix. It owns the
// workspace of its decodes, so a warm Decode allocates nothing; like
// bp.Decoder it is not safe for concurrent use.
type Decoder struct {
	h   *sparse.Mat
	cfg Config

	order, pos      []int    // position → column by ascending LLR, and back
	aug             gf2.Mat  // [H[:, order] | s], reduced in place
	pivots          []int    // pivot position per reduced row
	npIdx, nonPiv   []int    // position → non-pivot index (-1 if pivot), and back
	colBits         []uint64 // non-pivot k's pivot-row bits, words at k*words
	base, cur, best []uint64 // pivot-row bits: OSD-0, candidate, lightest
	pat, bestPat    []int    // patterns as non-pivot indices
	errHat          gf2.Vec
}

// New builds an OSD decoder for h.
func New(h *sparse.Mat, cfg Config) *Decoder {
	if cfg.Order < 0 {
		panic(fmt.Sprintf("osd: negative order %d", cfg.Order))
	}
	n := h.Cols()
	return &Decoder{h: h, cfg: cfg, order: make([]int, n), pos: make([]int, n),
		npIdx: make([]int, n), errHat: gf2.NewVec(n)}
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

	// 1. reliability order: most likely in error first (ascending LLR),
	// stable; compared with < as before, so NaNs keep their old order
	order := d.order
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if llr[a] < llr[b] {
			return -1
		}
		if llr[b] < llr[a] {
			return 1
		}
		return 0
	})

	// 2. write [H | s] with its columns in that order and reduce it in
	// place: the RREF is unique, so this equals eliminating [H | s] with
	// its columns scanned in reliability order
	aug := &d.aug
	aug.Reset(m, n+1)
	for p, col := range order {
		d.pos[col] = p
	}
	for col := 0; col < n; col++ {
		for _, r := range d.h.ColSupport(col) {
			aug.Set(int(r), d.pos[col], true)
		}
	}
	for wi, w := range s.Words() {
		for ; w != 0; w &= w - 1 {
			aug.Set(wi*64+bits.TrailingZeros64(w), n, true)
		}
	}
	piv := aug.RREF(n, d.pivots)
	d.pivots = piv
	rank := len(piv)

	// consistency: rows at/below rank must not carry a syndrome bit
	for i := rank; i < m; i++ {
		if aug.Get(i, n) {
			return Result{OK: false}
		}
	}

	// non-pivot positions, in reliability order (most suspicious first)
	nonPiv := d.nonPiv[:0]
	for p, k := 0, 0; p < n; p++ {
		if k < rank && piv[k] == p {
			d.npIdx[p] = -1
			k++
			continue
		}
		d.npIdx[p] = len(nonPiv)
		nonPiv = append(nonPiv, p)
	}
	d.nonPiv = nonPiv

	// base pivot solution: e_P[i] = s̃[i]
	words := (rank + 63) / 64
	base := zeroed(&d.base, words)
	for i := 0; i < rank; i++ {
		if aug.Get(i, n) {
			base[i/64] |= 1 << (uint(i) % 64)
		}
	}
	best := append(d.best[:0], base...)
	d.best = best
	d.bestPat = d.bestPat[:0]
	patterns := 1

	if d.cfg.Method != OSD0 && len(nonPiv) > 0 {
		// 3. cache the RREF restricted to pivot rows, per non-pivot column
		colBits := zeroed(&d.colBits, len(nonPiv)*words)
		for i := 0; i < rank; i++ {
			for wi, w := range aug.RowView(i).Words() {
				for ; w != 0; w &= w - 1 {
					if k := wi*64 + bits.TrailingZeros64(w); k < n && d.npIdx[k] >= 0 {
						colBits[d.npIdx[k]*words+i/64] |= 1 << (uint(i) % 64)
					}
				}
			}
		}

		bestWeight := popcount(base)
		cur := zeroed(&d.cur, words)
		try := func(pattern []int) {
			copy(cur, base)
			for _, k := range pattern {
				cb := colBits[k*words : (k+1)*words]
				for w := range cur {
					cur[w] ^= cb[w]
				}
			}
			patterns++
			if w := popcount(cur) + len(pattern); w < bestWeight {
				bestWeight = w
				copy(best, cur)
				d.bestPat = append(d.bestPat[:0], pattern...)
			}
		}

		depth := min(d.cfg.Order, len(nonPiv))
		switch d.cfg.Method {
		case OSDE:
			// all subsets of the first Order non-pivot columns
			for mask := 1; mask < 1<<uint(depth); mask++ {
				d.pat = d.pat[:0]
				for b := 0; b < depth; b++ {
					if mask>>uint(b)&1 == 1 {
						d.pat = append(d.pat, b)
					}
				}
				try(d.pat)
			}
		case OSDCS:
			// weight-1 over the full non-pivot block, then weight-2 within
			// the first Order columns
			for k := range nonPiv {
				try([]int{k})
			}
			for a := 0; a < depth; a++ {
				for b := a + 1; b < depth; b++ {
					try([]int{a, b})
				}
			}
		}
	}

	// the chosen solution, in H's column indices
	e := d.errHat
	e.Zero()
	for i, p := range piv {
		if best[i/64]>>(uint(i)%64)&1 == 1 {
			e.Set(order[p], true)
		}
	}
	for _, k := range d.bestPat {
		e.Set(order[nonPiv[k]], true)
	}
	return Result{OK: true, ErrHat: e, Weight: e.Weight(), Patterns: patterns}
}

// zeroed reslices *buf to n zero words, growing it only when its capacity
// is short.
func zeroed(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

func popcount(w []uint64) int {
	c := 0
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}
