package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(r *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Intn(2) == 1 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// colMat returns x as a len(x)×1 matrix.
func colMat(x Vec) *Mat {
	m := NewMat(x.Len(), 1)
	for _, i := range x.Support() {
		m.Set(i, 0, true)
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	a := randMat(r, 17, 23)
	if !Identity(17).Mul(a).Equal(a) {
		t.Fatal("I·A != A")
	}
	if !a.Mul(Identity(23)).Equal(a) {
		t.Fatal("A·I != A")
	}
}

func TestMulAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		p, q, s, u := 1+rr.Intn(20), 1+rr.Intn(20), 1+rr.Intn(20), 1+rr.Intn(20)
		a, b, c := randMat(rr, p, q), randMat(rr, q, s), randMat(rr, s, u)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randMat(rr, 1+rr.Intn(40), 1+rr.Intn(40))
		return a.Transpose().Transpose().Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeOfProduct(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		p, q, s := 1+rr.Intn(20), 1+rr.Intn(20), 1+rr.Intn(20)
		a, b := randMat(rr, p, q), randMat(rr, q, s)
		return a.Mul(b).Transpose().Equal(b.Transpose().Mul(a.Transpose()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		p, q := 1+rr.Intn(30), 1+rr.Intn(30)
		a := randMat(rr, p, q)
		x := randVec(rr, q)
		got := a.MulVec(x)
		want := a.Mul(colMat(x)).Col(0)
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestRowColAccess(t *testing.T) {
	m := MatFromRows([][]int{
		{1, 0, 1},
		{0, 1, 1},
	})
	if !m.Row(0).Equal(VecFromInts([]int{1, 0, 1})) {
		t.Fatal("Row(0) wrong")
	}
	if !m.Col(2).Equal(VecFromInts([]int{1, 1})) {
		t.Fatal("Col(2) wrong")
	}
	if m.RowWeight(1) != 2 {
		t.Fatal("RowWeight wrong")
	}
	m.SetRow(0, VecFromInts([]int{0, 0, 1}))
	if m.Get(0, 0) || !m.Get(0, 2) {
		t.Fatal("SetRow wrong")
	}
}

func TestXorSwapRows(t *testing.T) {
	m := MatFromRows([][]int{
		{1, 1, 0},
		{0, 1, 1},
	})
	m.XorRows(0, 1)
	if !m.Row(0).Equal(VecFromInts([]int{1, 0, 1})) {
		t.Fatal("XorRows wrong")
	}
	m.SwapRows(0, 1)
	if !m.Row(0).Equal(VecFromInts([]int{0, 1, 1})) {
		t.Fatal("SwapRows wrong")
	}
}

func TestHStackVStack(t *testing.T) {
	a := MatFromRows([][]int{{1, 0}, {0, 1}})
	b := MatFromRows([][]int{{1, 1}, {0, 0}})
	h := HStack(a, b)
	if h.Rows() != 2 || h.Cols() != 4 || !h.Get(0, 0) || !h.Get(0, 2) || !h.Get(0, 3) {
		t.Fatalf("HStack wrong:\n%s", h)
	}
	v := VStack(a, b)
	if v.Rows() != 4 || v.Cols() != 2 || !v.Get(2, 0) || !v.Get(2, 1) {
		t.Fatalf("VStack wrong:\n%s", v)
	}
}

func TestKronSmall(t *testing.T) {
	a := MatFromRows([][]int{{1, 1}})
	b := MatFromRows([][]int{{1, 0}, {0, 1}})
	k := Kron(a, b)
	// (1 1) ⊗ I2 = (I2 | I2)
	want := MatFromRows([][]int{{1, 0, 1, 0}, {0, 1, 0, 1}})
	if !k.Equal(want) {
		t.Fatalf("Kron wrong:\n%s\nwant\n%s", k, want)
	}
}

func TestKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	r := rand.New(rand.NewSource(15))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randMat(rr, 1+rr.Intn(5), 1+rr.Intn(5))
		b := randMat(rr, 1+rr.Intn(5), 1+rr.Intn(5))
		c := randMat(rr, a.Cols(), 1+rr.Intn(5))
		d := randMat(rr, b.Cols(), 1+rr.Intn(5))
		return Kron(a, b).Mul(Kron(c, d)).Equal(Kron(a.Mul(c), b.Mul(d)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := MatFromRows([][]int{{1, 0}, {0, 1}})
	b := a.Clone()
	b.Flip(0, 1)
	if a.Get(0, 1) {
		t.Fatal("Clone shares storage")
	}
	if a.IsZero() {
		t.Fatal("IsZero wrong on nonzero matrix")
	}
	if !NewMat(3, 3).IsZero() {
		t.Fatal("IsZero wrong on zero matrix")
	}
}

func TestMatString(t *testing.T) {
	m := MatFromRows([][]int{{1, 0}, {0, 1}})
	if m.String() != "10\n01" {
		t.Fatalf("String = %q", m.String())
	}
}
