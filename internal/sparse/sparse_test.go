package sparse

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bpsf/internal/gf2"
)

func randSparse(r *rand.Rand, rows, cols int, density float64) *Mat {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				b.Set(i, j)
			}
		}
	}
	return b.Build()
}

func randGF2Vec(r *rand.Rand, n int) gf2.Vec {
	v := gf2.NewVec(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			v.Set(i, true)
		}
	}
	return v
}

func TestBuilderAndAccessors(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Set(0, 1)
	b.Set(0, 3)
	b.Set(2, 0)
	b.Set(2, 0) // idempotent
	m := b.Build()
	if m.Rows() != 3 || m.Cols() != 4 || m.NNZ() != 3 {
		t.Fatalf("shape/nnz wrong: %v", m)
	}
	if got := m.RowSupport(0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("RowSupport(0) = %v", got)
	}
	if got := m.ColSupport(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("ColSupport(0) = %v", got)
	}
	if m.RowWeight(1) != 0 || m.ColWeight(3) != 1 {
		t.Fatal("weights wrong")
	}
	if !m.Get(0, 1) || m.Get(1, 1) {
		t.Fatal("Get wrong")
	}
	if m.MaxRowWeight() != 2 {
		t.Fatal("MaxRowWeight wrong")
	}
}

func TestBuilderFlip(t *testing.T) {
	b := NewBuilder(1, 2)
	b.Flip(0, 0)
	b.Flip(0, 0)
	b.Flip(0, 1)
	m := b.Build()
	if m.Get(0, 0) || !m.Get(0, 1) {
		t.Fatal("Flip accumulation wrong")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Set(2, 0)
}

// TestFromColsMatchesEntries builds random matrices from their
// compressed columns and checks both adjacencies entry by entry, empty
// rows and columns included.
func TestFromColsMatchesEntries(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, shape := range [][2]int{{0, 0}, {3, 0}, {0, 4}, {7, 13}, {40, 25}} {
		for _, density := range []float64{0, 0.1, 0.5} {
			rows, cols := shape[0], shape[1]
			colPtr := make([]int, cols+1)
			var rowIdx []int32
			wantRows := make([][]int32, rows)
			wantCols := make([][]int32, cols)
			for j := 0; j < cols; j++ {
				for i := 0; i < rows; i++ {
					if r.Float64() < density {
						rowIdx = append(rowIdx, int32(i))
						wantRows[i] = append(wantRows[i], int32(j))
						wantCols[j] = append(wantCols[j], int32(i))
					}
				}
				colPtr[j+1] = len(rowIdx)
			}
			m := FromCols(rows, colPtr, rowIdx)
			if m.Rows() != rows || m.Cols() != cols || m.NNZ() != len(rowIdx) {
				t.Fatalf("%dx%d: got %dx%d nnz %d", rows, cols, m.Rows(), m.Cols(), m.NNZ())
			}
			for i, want := range wantRows {
				if got := m.RowSupport(i); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%dx%d density %v row %d: %v, want %v", rows, cols, density, i, got, want)
				}
			}
			for j, want := range wantCols {
				if got := m.ColSupport(j); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%dx%d density %v column %d: %v, want %v", rows, cols, density, j, got, want)
				}
			}
			checkEdgeMap(t, m)
		}
	}
}

// checkEdgeMap holds m's CSC edge map to its CSR side: CSC position k of
// column j is an edge of row rowIdx[k] that lies in column j, and every
// edge is listed exactly once.
func checkEdgeMap(t *testing.T, m *Mat) {
	t.Helper()
	rowPtr, colIdx := m.CSR()
	colPtr, rowIdx, edge := m.CSC()
	if len(edge) != m.NNZ() {
		t.Fatalf("%v: edge map has %d entries", m, len(edge))
	}
	seen := make([]bool, m.NNZ())
	for j := 0; j < m.Cols(); j++ {
		for k := colPtr[j]; k < colPtr[j+1]; k++ {
			e, i := int(edge[k]), int(rowIdx[k])
			if int(colIdx[e]) != j {
				t.Fatalf("%v: column %d position %d maps to edge %d in column %d", m, j, k, e, colIdx[e])
			}
			if e < rowPtr[i] || e >= rowPtr[i+1] {
				t.Fatalf("%v: column %d position %d maps to edge %d outside row %d's [%d, %d)", m, j, k, e, i, rowPtr[i], rowPtr[i+1])
			}
			if seen[e] {
				t.Fatalf("%v: edge %d listed twice", m, e)
			}
			seen[e] = true
		}
	}
}

func TestGraphAdjacency(t *testing.T) {
	m := FromRows([][]int{
		{1, 1, 0, 1},
		{0, 1, 1, 0},
	})
	rowPtr, colIdx := m.CSR()
	colPtr, rowIdx, edge := m.CSC()
	if !reflect.DeepEqual(rowPtr, []int{0, 3, 5}) || !reflect.DeepEqual(colIdx, []int32{0, 1, 3, 1, 2}) {
		t.Fatalf("CSR = %v %v", rowPtr, colIdx)
	}
	// variable 1's edges are 1 (check 0) and 3 (check 1), in check order
	if !reflect.DeepEqual(colPtr, []int{0, 1, 3, 4, 5}) || !reflect.DeepEqual(rowIdx, []int32{0, 0, 1, 1, 0}) ||
		!reflect.DeepEqual(edge, []int32{0, 1, 3, 4, 2}) {
		t.Fatalf("CSC = %v %v %v", colPtr, rowIdx, edge)
	}
}

func TestGraphConsistencyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for trial := 0; trial < 20; trial++ {
		m := randSparse(r, 1+r.Intn(30), 1+r.Intn(30), 0.2)
		checkEdgeMap(t, m)
		// Transpose goes through the Builder, so this checks its CSC too
		checkEdgeMap(t, m.Transpose())
	}
}

func TestDenseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m := randSparse(rr, 1+rr.Intn(30), 1+rr.Intn(30), 0.3)
		return FromDense(m.ToDense()).Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m := randSparse(rr, 1+rr.Intn(30), 1+rr.Intn(30), 0.3)
		x := randGF2Vec(rr, m.Cols())
		return m.MulVec(x).Equal(m.ToDense().MulVec(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// TestMulVecInto holds MulVecInto to the dense product on random matrices
// whose columns span several words, at zero, sparse and full x weights,
// into a dst holding stale bits.
func TestMulVecInto(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		m := randSparse(r, 1+r.Intn(90), 1+r.Intn(200), 0.05+0.3*r.Float64())
		dense := m.ToDense()
		for _, weight := range []string{"zero", "sparse", "full"} {
			x := gf2.NewVec(m.Cols())
			for j := 0; j < m.Cols(); j++ {
				switch weight {
				case "sparse":
					x.Set(j, r.Intn(20) == 0)
				case "full":
					x.Set(j, true)
				}
			}
			dst := gf2.NewVec(m.Rows())
			for i := 0; i < m.Rows(); i++ {
				dst.Set(i, r.Intn(2) == 1) // must be cleared
			}
			m.MulVecInto(dst, x)
			if want := dense.MulVec(x); !dst.Equal(want) {
				t.Fatalf("trial %d (%dx%d, %s x): MulVecInto %v, dense %v", trial, m.Rows(), m.Cols(), weight, dst, want)
			}
		}
	}
}

func TestMulSupportMatchesMulVec(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m := randSparse(rr, 1+rr.Intn(30), 1+rr.Intn(30), 0.3)
		x := randGF2Vec(rr, m.Cols())
		got := gf2.NewVec(m.Rows())
		m.MulSupportInto(got, x.Support())
		return got.Equal(m.MulVec(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestMulSupportIntoAccumulates(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	m := randSparse(r, 15, 20, 0.25)
	s := randGF2Vec(r, 15)
	x := randGF2Vec(r, 20)
	acc := s.Clone()
	m.MulSupportInto(acc, x.Support())
	want := s.Clone()
	want.Xor(m.MulVec(x))
	if !acc.Equal(want) {
		t.Fatal("MulSupportInto did not accumulate s ⊕ Hx")
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		m := randSparse(rr, 1+rr.Intn(30), 1+rr.Intn(30), 0.3)
		return m.Transpose().ToDense().Equal(m.ToDense().Transpose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestMulMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		p, q, s := 1+rr.Intn(15), 1+rr.Intn(15), 1+rr.Intn(15)
		a := randSparse(rr, p, q, 0.3)
		b := randSparse(rr, q, s, 0.3)
		return a.Mul(b).ToDense().Equal(a.ToDense().Mul(b.ToDense()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

// denseKron is the entrywise Kronecker product, the reference for Kron.
func denseKron(a, b *gf2.Mat) *gf2.Mat {
	out := gf2.NewMat(a.Rows()*b.Rows(), a.Cols()*b.Cols())
	for i := 0; i < out.Rows(); i++ {
		for j := 0; j < out.Cols(); j++ {
			out.Set(i, j, a.Get(i/b.Rows(), j/b.Cols()) && b.Get(i%b.Rows(), j%b.Cols()))
		}
	}
	return out
}

func TestKronMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randSparse(rr, 1+rr.Intn(6), 1+rr.Intn(6), 0.4)
		b := randSparse(rr, 1+rr.Intn(6), 1+rr.Intn(6), 0.4)
		return Kron(a, b).ToDense().Equal(denseKron(a.ToDense(), b.ToDense()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestStacks(t *testing.T) {
	a := FromRows([][]int{{1, 0}, {0, 1}})
	b := FromRows([][]int{{1, 1}, {0, 0}})
	h := HStack(a, b)
	if h.Cols() != 4 || !h.Get(0, 2) || !h.Get(0, 3) || h.Get(1, 2) {
		t.Fatal("HStack wrong")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(5)
	if id.NNZ() != 5 {
		t.Fatal("identity nnz wrong")
	}
	m := FromRows([][]int{{1, 0, 1}, {0, 1, 1}})
	if !Identity(2).Mul(m).Equal(m) {
		t.Fatal("I·m != m")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 || m.NNZ() != 0 {
		t.Fatal("empty matrix wrong")
	}
}
