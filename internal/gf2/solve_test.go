package gf2

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// rrefRef is an entry-by-entry Gauss–Jordan reduction over bool rows,
// sharing no code with Mat.RREF: pivots in natural order among the first
// pivotCols columns, row operations over every column, stopping once each
// row holds a pivot.
func rrefRef(a *Mat, pivotCols int) ([][]bool, []int) {
	r := make([][]bool, a.Rows())
	for i := range r {
		r[i] = make([]bool, a.Cols())
		for j := range r[i] {
			r[i][j] = a.Get(i, j)
		}
	}
	var pivots []int
	for col := 0; col < pivotCols && len(pivots) < len(r); col++ {
		row := len(pivots)
		sel := row
		for sel < len(r) && !r[sel][col] {
			sel++
		}
		if sel == len(r) {
			continue
		}
		r[row], r[sel] = r[sel], r[row]
		for i := range r {
			if i != row && r[i][col] {
				for j := range r[i] {
					r[i][j] = r[i][j] != r[row][j]
				}
			}
		}
		pivots = append(pivots, col)
	}
	return r, pivots
}

// checkRREF reduces a copy of a into ws and compares every entry and
// pivot with rrefRef.
func checkRREF(t *testing.T, ws *Mat, a *Mat, pivotCols int) {
	t.Helper()
	ws.Reset(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		ws.SetRow(i, a.Row(i))
	}
	got := ws.RREF(pivotCols, nil)
	want, wantPiv := rrefRef(a, pivotCols)
	if fmt.Sprint(got) != fmt.Sprint(wantPiv) {
		t.Fatalf("%dx%d pivotCols=%d: pivots %v, reference %v", a.Rows(), a.Cols(), pivotCols, got, wantPiv)
	}
	for i := range want {
		for j := range want[i] {
			if ws.Get(i, j) != want[i][j] {
				t.Fatalf("%dx%d pivotCols=%d: entry (%d,%d) = %v, reference %v",
					a.Rows(), a.Cols(), pivotCols, i, j, ws.Get(i, j), want[i][j])
			}
		}
	}
}

// lowRankMat returns a random rows×cols matrix of rank at most k.
func lowRankMat(r *rand.Rand, rows, cols, k int) *Mat {
	return randMat(r, rows, k).Mul(randMat(r, k, cols))
}

// TestRREFMatchesReference holds Mat.RREF to the entry-by-entry reference
// across word boundaries (widths 1, 63, 64, 65, 128, 129), on tall, wide,
// square and rank-deficient shapes, with pivots limited to a prefix of the
// columns, in one workspace reused across every shape.
func TestRREFMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	var ws Mat
	for _, cols := range []int{1, 63, 64, 65, 128, 129} {
		for _, rows := range []int{1, 3, cols / 2, cols, cols + 5, 2 * cols} {
			if rows == 0 {
				continue
			}
			shapes := []*Mat{
				randMat(r, rows, cols),
				lowRankMat(r, rows, cols, 1+r.Intn(min(rows, cols))),
				NewMat(rows, cols),
			}
			for _, a := range shapes {
				for _, pc := range []int{cols, cols / 2, cols - 1, 0} {
					if pc < 0 {
						continue
					}
					checkRREF(t, &ws, a, pc)
				}
			}
		}
	}
}

// TestResetReusesWorkspace pins the workspace contract: Reset to a larger
// shape grows the storage, Reset to a smaller one reuses it and leaves no
// stale entry behind, and a warm reduction allocates nothing.
func TestResetReusesWorkspace(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	var ws Mat
	small, large := randMat(r, 20, 70), randMat(r, 150, 129)
	checkRREF(t, &ws, small, small.Cols())
	checkRREF(t, &ws, large, 100)
	base := &ws.data[0]
	ws.Reset(7, 65)
	if !ws.IsZero() || ws.Rows() != 7 || ws.Cols() != 65 {
		t.Fatalf("Reset(7, 65) left a %dx%d matrix, zero=%v", ws.Rows(), ws.Cols(), ws.IsZero())
	}
	if &ws.data[0] != base {
		t.Fatal("Reset to a smaller shape reallocated")
	}
	checkRREF(t, &ws, lowRankMat(r, 7, 65, 3), 65)

	a := randMat(r, 64, 200)
	pivots := make([]int, 0, 64)
	if allocs := testing.AllocsPerRun(20, func() {
		ws.Reset(a.Rows(), a.Cols())
		copy(ws.data, a.data)
		pivots = ws.RREF(a.Cols(), pivots)
	}); allocs != 0 {
		t.Fatalf("warm Reset+RREF allocates %.1f objects, want 0", allocs)
	}
}

// solve solves a·x = b through the RREF of [a | b], free variables zero.
func solve(a *Mat, b Vec) (Vec, bool) {
	aug := HStack(a, NewMat(a.Rows(), 1))
	for _, i := range b.Support() {
		aug.Set(i, a.Cols(), true)
	}
	pivots := aug.RREF(a.Cols(), nil)
	for i := len(pivots); i < a.Rows(); i++ {
		if aug.Get(i, a.Cols()) {
			return Vec{}, false
		}
	}
	x := NewVec(a.Cols())
	for i, col := range pivots {
		x.Set(col, aug.Get(i, a.Cols()))
	}
	return x, true
}

// inRowSpace reports whether v lies in the row space of a, reducing it
// against the pivot rows of a's RREF.
func inRowSpace(a *Mat, v Vec) bool {
	r := a.Clone()
	pivots := r.RREF(a.Cols(), nil)
	v = v.Clone()
	for i, col := range pivots {
		if v.Get(col) {
			v.Xor(r.RowView(i))
		}
	}
	return v.IsZero()
}

func TestRowReduceRankIdentity(t *testing.T) {
	if Rank(Identity(10)) != 10 {
		t.Fatal("rank of identity wrong")
	}
	if Rank(NewMat(5, 7)) != 0 {
		t.Fatal("rank of zero matrix wrong")
	}
}

func TestRowReduceDuplicateRows(t *testing.T) {
	m := MatFromRows([][]int{
		{1, 0, 1},
		{1, 0, 1},
		{0, 1, 1},
	})
	if got := Rank(m); got != 2 {
		t.Fatalf("rank = %d, want 2", got)
	}
}

func TestRowReduceRREFShape(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 30; trial++ {
		a := randMat(r, 1+r.Intn(25), 1+r.Intn(25))
		pivots := a.RREF(a.Cols(), nil)
		// each pivot column must contain a single 1, in the pivot row
		for i, col := range pivots {
			for row := 0; row < a.Rows(); row++ {
				want := row == i
				if a.Get(row, col) != want {
					t.Fatalf("RREF pivot column %d not unit at row %d", col, row)
				}
			}
		}
		// rows past rank must be zero
		for row := len(pivots); row < a.Rows(); row++ {
			if a.RowWeight(row) != 0 {
				t.Fatalf("row %d below rank nonzero", row)
			}
		}
	}
}

func TestSolveConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		rows, cols := 1+rr.Intn(25), 1+rr.Intn(25)
		a := randMat(rr, rows, cols)
		// construct a consistent rhs from a random x
		x0 := randVec(rr, cols)
		b := a.MulVec(x0)
		x, ok := solve(a, b)
		if !ok {
			return false
		}
		return a.MulVec(x).Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveInconsistent(t *testing.T) {
	// x + y = 0, x + y = 1 has no solution
	a := MatFromRows([][]int{{1, 1}, {1, 1}})
	b := VecFromInts([]int{0, 1})
	if _, ok := solve(a, b); ok {
		t.Fatal("inconsistent system reported solvable")
	}
}

func TestSolveZeroRHS(t *testing.T) {
	a := MatFromRows([][]int{{1, 1, 0}, {0, 1, 1}})
	x, ok := solve(a, NewVec(2))
	if !ok || !x.IsZero() {
		t.Fatal("zero rhs should give zero solution with free vars zero")
	}
}

func TestNullspaceBasis(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randMat(rr, 1+rr.Intn(20), 1+rr.Intn(20))
		ns := NullspaceBasis(a)
		if ns.Rows() != a.Cols()-Rank(a) {
			return false
		}
		// every basis vector annihilated by a
		for i := 0; i < ns.Rows(); i++ {
			if !a.MulVec(ns.Row(i)).IsZero() {
				return false
			}
		}
		// basis rows independent
		return Rank(ns) == ns.Rows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestRowBasisSpansAndInRowSpace(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		a := randMat(r, 1+r.Intn(20), 1+r.Intn(20))
		red := a.Clone()
		rank := len(red.RREF(a.Cols(), nil))
		if rank != Rank(a) {
			t.Fatalf("RREF rank = %d, want %d", rank, Rank(a))
		}
		// the RREF's first rank rows span a's row space
		basis := NewMat(rank, a.Cols())
		for i := 0; i < rank; i++ {
			basis.SetRow(i, red.Row(i))
		}
		if Rank(VStack(basis, a)) != rank {
			t.Fatal("rows of a outside the span of its RREF rows")
		}
		// every original row is in the row space
		for i := 0; i < a.Rows(); i++ {
			if !inRowSpace(a, a.Row(i)) {
				t.Fatalf("row %d not in its own row space", i)
			}
		}
	}
}

func TestInRowSpaceRejects(t *testing.T) {
	a := MatFromRows([][]int{{1, 1, 0}})
	if inRowSpace(a, VecFromInts([]int{0, 0, 1})) {
		t.Fatal("vector outside row space accepted")
	}
	if !inRowSpace(a, VecFromInts([]int{1, 1, 0})) {
		t.Fatal("row space member rejected")
	}
}

func TestQuotientBasisCSSToy(t *testing.T) {
	// Steane-like toy: use the [7,4,3] Hamming code for both HX and HZ.
	h := MatFromRows([][]int{
		{1, 0, 1, 0, 1, 0, 1},
		{0, 1, 1, 0, 0, 1, 1},
		{0, 0, 0, 1, 1, 1, 1},
	})
	// Steane code: HX = HZ = h, k = 7 - 3 - 3 = 1
	lx := QuotientBasis(h, h)
	if lx.Rows() != 1 {
		t.Fatalf("Steane logicals = %d, want 1", lx.Rows())
	}
	// logical must be in ker(h) and outside rowspace(h)
	if !h.MulVec(lx.Row(0)).IsZero() {
		t.Fatal("logical not in kernel")
	}
	if inRowSpace(h, lx.Row(0)) {
		t.Fatal("logical inside stabilizer row space")
	}
}

func TestQuotientBasisFullMod(t *testing.T) {
	// modding the kernel by itself leaves nothing
	h := MatFromRows([][]int{{1, 1, 0, 0}})
	ker := NullspaceBasis(h)
	q := QuotientBasis(h, ker)
	if q.Rows() != 0 {
		t.Fatalf("quotient by full kernel = %d rows, want 0", q.Rows())
	}
}
