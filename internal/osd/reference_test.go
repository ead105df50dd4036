package osd

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"bpsf/internal/bp"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/sparse"
)

// decodeRef is Decoder.Decode as it was before the reusable workspace:
// it eliminates a fresh dense copy of [H | s] with the column scan order as
// a parameter and builds the non-pivot columns in a map. It is the
// reference TestDecodeMatchesReference holds Decode to.
func decodeRef(h *sparse.Mat, cfg Config, s gf2.Vec, llr []float64) Result {
	n := h.Cols()
	m := h.Rows()
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
	aug := gf2.HStack(h.ToDense(), colVec(s))
	e := rowReduceRef(aug, order)
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

	if cfg.Method == OSD0 || len(nonPivot) == 0 {
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

	switch cfg.Method {
	case OSDE:
		// all subsets of the first Order non-pivot columns
		depth := min(cfg.Order, len(nonPivot))
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
		depth := min(cfg.Order, len(nonPivot))
		for a := 0; a < depth; a++ {
			for b := a + 1; b < depth; b++ {
				try([]int{nonPivot[a], nonPivot[b]})
			}
		}
	}

	sol := build(bestBits, bestPattern)
	return Result{OK: true, ErrHat: sol, Weight: sol.Weight(), Patterns: patterns}
}

// echelonRef is the reduced row echelon form rowReduceRef returns: R, its
// rank, and the pivot column of each of the first Rank rows.
type echelonRef struct {
	R         *gf2.Mat
	Rank      int
	PivotCols []int
}

// rowReduceRef is Gauss–Jordan elimination of a copy of a that scans
// columns for pivots in the given order, entry by entry. It shares no code
// with gf2.Mat.RREF.
func rowReduceRef(a *gf2.Mat, order []int) echelonRef {
	r := a.Clone()
	var pivots []int
	row := 0
	for _, col := range order {
		if row >= r.Rows() {
			break
		}
		sel := -1
		for i := row; i < r.Rows(); i++ {
			if r.Get(i, col) {
				sel = i
				break
			}
		}
		if sel < 0 {
			continue
		}
		swapRows(r, row, sel)
		for i := 0; i < r.Rows(); i++ {
			if i != row && r.Get(i, col) {
				xorRows(r, i, row)
			}
		}
		pivots = append(pivots, col)
		row++
	}
	return echelonRef{R: r, Rank: row, PivotCols: pivots}
}

// colVec returns b as an n×1 matrix.
func colVec(b gf2.Vec) *gf2.Mat {
	m := gf2.NewMat(b.Len(), 1)
	for _, i := range b.Support() {
		m.Set(i, 0, true)
	}
	return m
}

// osdConfigs are the methods the differential and allocation tests cover.
var osdConfigs = []Config{{Method: OSD0}, {Method: OSDE, Order: 6}, {Method: OSDCS, Order: 10}}

// osdCase is one OSD input: a syndrome and the LLRs that order its columns.
type osdCase struct {
	s   gf2.Vec
	llr []float64
}

// failureCorpus is a DEM's check matrix and the BP1000 failures on it.
type failureCorpus struct {
	h     *sparse.Mat
	cases []osdCase
}

// bpFailureCache shares each corpus between the tests: BP1000 runs on
// failing syndromes dominate this package's test time.
var bpFailureCache struct {
	sync.Mutex
	m map[string]failureCorpus
}

// bpFailures samples DEM syndromes of a catalog code's memory experiment
// at p = 3e-3 and keeps, with BP1000's posterior LLRs, the first want that
// BP1000 fails to decode: the inputs BP-OSD hands to OSD.
func bpFailures(t testing.TB, name string, rounds, want int) (*sparse.Mat, []osdCase) {
	t.Helper()
	const p = 3e-3
	key := fmt.Sprintf("%s/r%d/%d", name, rounds, want)
	bpFailureCache.Lock()
	defer bpFailureCache.Unlock()
	if c, ok := bpFailureCache.m[key]; ok {
		return c.h, c.cases
	}
	c, err := codes.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(c, rounds, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	d, err := dem.Extract(circ)
	if err != nil {
		t.Fatal(err)
	}
	dec := bp.New(d.H, d.Priors(p), bp.Config{MaxIter: 1000})
	smp := dem.NewSampler(d, p, 5)
	var out []osdCase
	for shots := 0; len(out) < want; shots++ {
		if shots == 4000 {
			t.Fatalf("%s r%d: BP1000 failed only %d of %d syndromes", name, rounds, len(out), shots)
		}
		s, _ := smp.SampleShared()
		if r := dec.Decode(s); !r.Success {
			out = append(out, osdCase{s.Clone(), append([]float64(nil), r.Marginal...)})
		}
	}
	if bpFailureCache.m == nil {
		bpFailureCache.m = map[string]failureCorpus{}
	}
	bpFailureCache.m[key] = failureCorpus{d.H, out}
	return d.H, out
}

// label names a configuration as the sim registry does: OSD-0, OSD-E6,
// OSD-CS10.
func label(cfg Config) string {
	if cfg.Method == OSD0 {
		return cfg.Method.String()
	}
	return fmt.Sprintf("%v%d", cfg.Method, cfg.Order)
}

// capacityCases draws code-capacity syndromes of h with LLRs that stress
// the stable reliability order: all equal, or a few distinct values
// (signed zeros included) so that most columns tie.
func capacityCases(h *sparse.Mat, r *rand.Rand, shots int) []osdCase {
	levels := []float64{-1, math.Copysign(0, -1), 0, 0.5, 2}
	var out []osdCase
	for i := 0; i < shots; i++ {
		e := gf2.NewVec(h.Cols())
		for k := 0; k < 1+r.Intn(8); k++ {
			e.Set(r.Intn(h.Cols()), true)
		}
		llr := make([]float64, h.Cols())
		for j := range llr {
			llr[j] = 1
			if i%2 == 1 {
				llr[j] = levels[r.Intn(len(levels))]
			}
		}
		out = append(out, osdCase{h.MulVec(e), llr})
	}
	return out
}

// TestDecodeMatchesReference is the differential test of the workspace
// decoder: on syndromes BP1000 fails on the bb72 and bb144 DEMs, and on
// tie-heavy and flat LLRs over code-capacity codes (with unsolvable
// random syndromes mixed in), one warm decoder per method must return
// decodeRef's OK, ErrHat, Weight and Patterns.
func TestDecodeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(74))
	type corpus struct {
		name  string
		h     *sparse.Mat
		cases []osdCase
	}
	var corpora []corpus
	for _, dc := range []struct {
		code         string
		rounds, want int
	}{{"bb72", 2, 5}, {"bb144", 2, 3}} {
		h, cases := bpFailures(t, dc.code, dc.rounds, dc.want)
		corpora = append(corpora, corpus{dc.code + "-dem", h, cases})
	}
	for _, name := range []string{"bb72", "rsurf5", "toric4"} {
		c, err := codes.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cases := capacityCases(c.HZ, r, 24)
		for i := 0; i < 4; i++ { // random syndromes, unsolvable when HZ is rank-deficient
			s := gf2.NewVec(c.HZ.Rows())
			for j := 0; j < s.Len(); j++ {
				s.Set(j, r.Intn(2) == 1)
			}
			cases = append(cases, osdCase{s, cases[i].llr})
		}
		corpora = append(corpora, corpus{name + "-capacity", c.HZ, cases})
	}
	for _, cp := range corpora {
		for _, cfg := range osdConfigs {
			t.Run(cp.name+"/"+label(cfg), func(t *testing.T) {
				d := New(cp.h, cfg)
				for i, c := range cp.cases {
					got, want := d.Decode(c.s, c.llr), decodeRef(cp.h, cfg, c.s, c.llr)
					if got.OK != want.OK || !got.ErrHat.Equal(want.ErrHat) ||
						got.Weight != want.Weight || got.Patterns != want.Patterns {
						t.Fatalf("case %d: got {ok=%v weight=%d patterns=%d}, reference {ok=%v weight=%d patterns=%d}",
							i, got.OK, got.Weight, got.Patterns, want.OK, want.Weight, want.Patterns)
					}
				}
			})
		}
	}
}

// TestDecodeZeroAllocSteadyState gates the workspace: once warm, a decode
// allocates nothing for any method, on the bb72 DEM syndromes BP1000
// fails.
func TestDecodeZeroAllocSteadyState(t *testing.T) {
	h, cases := bpFailures(t, "bb72", 2, 5)
	for _, cfg := range osdConfigs {
		t.Run(label(cfg), func(t *testing.T) {
			d := New(h, cfg)
			sweep := func() {
				for _, c := range cases {
					d.Decode(c.s, c.llr)
				}
			}
			sweep()
			if allocs := testing.AllocsPerRun(5, sweep); allocs != 0 {
				t.Fatalf("warm decodes allocate %.1f objects per sweep of %d, want exactly 0", allocs, len(cases))
			}
		})
	}
}

// xorRows sets row dst ^= row src.
func xorRows(m *gf2.Mat, dst, src int) { m.RowView(dst).Xor(m.RowView(src)) }

// swapRows exchanges rows i and j.
func swapRows(m *gf2.Mat, i, j int) {
	a, b := m.RowView(i).Words(), m.RowView(j).Words()
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

func TestXorSwapRows(t *testing.T) {
	m := gf2.MatFromRows([][]int{
		{1, 1, 0},
		{0, 1, 1},
	})
	xorRows(m, 0, 1)
	if !m.Row(0).Equal(gf2.VecFromInts([]int{1, 0, 1})) {
		t.Fatal("xorRows wrong")
	}
	swapRows(m, 0, 1)
	if !m.Row(0).Equal(gf2.VecFromInts([]int{0, 1, 1})) {
		t.Fatal("swapRows wrong")
	}
	swapRows(m, 1, 1)
	if !m.Row(1).Equal(gf2.VecFromInts([]int{1, 0, 1})) {
		t.Fatal("swapRows(i, i) changed the row")
	}
}
