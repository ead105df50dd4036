package code

import (
	"testing"

	"bpsf/internal/gf2"
	"bpsf/internal/sparse"
)

// steane returns the [7,4,3] Hamming check matrix used by the Steane code.
func steane() *sparse.Mat {
	return sparse.FromRows([][]int{
		{1, 0, 1, 0, 1, 0, 1},
		{0, 1, 1, 0, 0, 1, 1},
		{0, 0, 0, 1, 1, 1, 1},
	})
}

func TestNewCSSSteane(t *testing.T) {
	h := steane()
	c, err := NewCSS("Steane [[7,1,3]]", h, h, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 7 || c.K != 1 || c.D != 3 {
		t.Fatalf("parameters [[%d,%d,%d]]", c.N, c.K, c.D)
	}
	if err := c.CheckValid(); err != nil {
		t.Fatal(err)
	}
	// symplectic pairing: LX[0]·LZ[0] = 1
	if !c.LX.ToDense().Row(0).Dot(c.LZ.ToDense().Row(0)) {
		t.Fatal("logicals do not anticommute")
	}
}

func TestNewCSSRejectsNonCommuting(t *testing.T) {
	hx := sparse.FromRows([][]int{{1, 1, 0}})
	hz := sparse.FromRows([][]int{{1, 0, 0}})
	if _, err := NewCSS("bad", hx, hz, 1); err == nil {
		t.Fatal("anticommuting checks accepted")
	}
}

func TestNewCSSRejectsShapeMismatch(t *testing.T) {
	hx := sparse.FromRows([][]int{{1, 1}})
	hz := sparse.FromRows([][]int{{1, 1, 0}})
	if _, err := NewCSS("bad", hx, hz, 1); err == nil {
		t.Fatal("column mismatch accepted")
	}
}

func TestSyndromeAndLogicalChecks(t *testing.T) {
	h := steane()
	c, err := NewCSS("steane", h, h, 3)
	if err != nil {
		t.Fatal(err)
	}
	// single X error: detected by HZ
	e := gf2.VecFromSupport(7, []int{2})
	if c.SyndromeOfX(e).IsZero() {
		t.Fatal("single X error has empty syndrome")
	}
	// a stabilizer (row of HX) is syndrome-free and logically trivial
	stab := h.ToDense().Row(0)
	if !c.SyndromeOfX(stab).IsZero() {
		t.Fatal("stabilizer has nonzero syndrome")
	}
	if c.IsLogicalX(stab) {
		t.Fatal("stabilizer flagged as logical")
	}
	// a logical X rep is syndrome-free but logically nontrivial
	lx := c.LX.ToDense().Row(0)
	if !c.SyndromeOfX(lx).IsZero() {
		t.Fatal("logical has nonzero syndrome")
	}
	if !c.IsLogicalX(lx) {
		t.Fatal("logical X not detected by LZ")
	}
	// symmetric Z side
	lz := c.LZ.ToDense().Row(0)
	if !c.SyndromeOfZ(lz).IsZero() || !c.IsLogicalZ(lz) {
		t.Fatal("Z side checks wrong")
	}
}

func TestDims(t *testing.T) {
	h := steane()
	c, err := NewCSS("steane", h, h, 3)
	if err != nil {
		t.Fatal(err)
	}
	cx, cz := c.Dims()
	if cx != 3 || cz != 3 {
		t.Fatalf("Dims = (%d,%d)", cx, cz)
	}
}

func TestNewSubsystemRejectsBadShapes(t *testing.T) {
	g := sparse.FromRows([][]int{{1, 1, 0}})
	comb := sparse.FromRows([][]int{{1, 1}}) // wrong width
	if _, err := NewSubsystem("bad", g, g, comb, sparse.Identity(1), 1); err == nil {
		t.Fatal("bad CombX accepted")
	}
	if _, err := NewSubsystem("bad", g, g, sparse.Identity(1), comb, 1); err == nil {
		t.Fatal("bad CombZ accepted")
	}
	g2 := sparse.FromRows([][]int{{1, 1}})
	if _, err := NewSubsystem("bad", g, g2, sparse.Identity(1), sparse.Identity(1), 1); err == nil {
		t.Fatal("column mismatch accepted")
	}
}

func TestSubsystemDegenerateToCSS(t *testing.T) {
	// a subsystem code whose gauge group IS the stabilizer group (identity
	// combos) must reproduce the CSS code
	h := steane()
	cssCode, err := NewCSS("steane", h, h, 3)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubsystem("steane-sub", h, h, sparse.Identity(3), sparse.Identity(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if sub.K != cssCode.K || sub.N != cssCode.N {
		t.Fatalf("subsystem [[%d,%d]] vs CSS [[%d,%d]]", sub.N, sub.K, cssCode.N, cssCode.K)
	}
	if err := sub.CheckValid(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateHelper(t *testing.T) {
	h := steane()
	if err := Validate(h, h); err != nil {
		t.Fatal(err)
	}
	if err := Validate(sparse.FromRows([][]int{{1, 0, 0}}), sparse.FromRows([][]int{{1, 0, 0}})); err == nil {
		t.Fatal("non-commuting pair validated")
	}
}

func TestInvertMatrix(t *testing.T) {
	m := gf2.MatFromRows([][]int{
		{1, 1, 0},
		{0, 1, 1},
		{0, 0, 1},
	})
	inv, ok := invert(m)
	if !ok {
		t.Fatal("invertible matrix reported singular")
	}
	if !m.Mul(inv).Equal(gf2.Identity(3)) {
		t.Fatal("M·M⁻¹ != I")
	}
	sing := gf2.MatFromRows([][]int{{1, 1}, {1, 1}})
	if _, ok := invert(sing); ok {
		t.Fatal("singular matrix inverted")
	}
	if _, ok := invert(gf2.NewMat(2, 3)); ok {
		t.Fatal("non-square matrix inverted")
	}
}

func TestPairingErrorMessage(t *testing.T) {
	if errPairing(0, 1).Error() == "" {
		t.Fatal("empty pairing error")
	}
}
