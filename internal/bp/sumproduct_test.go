package bp

import (
	"math"
	"math/rand"
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/gf2"
)

func TestVariantString(t *testing.T) {
	if MinSum.String() != "min-sum" || SumProduct.String() != "sum-product" || Variant(9).String() != "unknown" {
		t.Fatal("Variant.String wrong")
	}
}

func TestSPCheckUpdateBasics(t *testing.T) {
	// degree-2 check, equal inputs: out_i = ±2·atanh(tanh(m/2))= ±m
	in := []float64{2.0, 2.0}
	out := make([]float64, 2)
	spCheckUpdate(in, out, 1)
	for _, o := range out {
		if math.Abs(o-2.0) > 1e-9 {
			t.Fatalf("degree-2 output %v, want 2.0", out)
		}
	}
	// unsatisfied check flips the sign
	spCheckUpdate(in, out, -1)
	if out[0] > 0 {
		t.Fatal("syndrome sign not applied")
	}
}

func TestSPCheckUpdateZeroInput(t *testing.T) {
	// one zero input: its output is the product of the others; other
	// outputs are 0
	in := []float64{0, 3.0, -1.0}
	out := make([]float64, 3)
	spCheckUpdate(in, out, 1)
	if math.Abs(out[1]) > 1e-12 || math.Abs(out[2]) > 1e-12 {
		t.Fatalf("nonzero outputs through a zero input: %v", out)
	}
	want := 2 * math.Atanh(math.Tanh(1.5)*math.Tanh(-0.5))
	if math.Abs(out[0]-want) > 1e-9 {
		t.Fatalf("zero-edge output %v, want %v", out[0], want)
	}
	// two zero inputs: everything is 0
	in = []float64{0, 0, 3.0}
	spCheckUpdate(in, out, 1)
	for _, o := range out {
		if math.Abs(o) > 1e-12 {
			t.Fatalf("two zero inputs must null all outputs: %v", out)
		}
	}
}

func TestSPCheckUpdateClamping(t *testing.T) {
	// huge inputs must stay finite
	in := []float64{80, 80, 80}
	out := make([]float64, 3)
	spCheckUpdate(in, out, 1)
	for _, o := range out {
		if math.IsInf(o, 0) || math.IsNaN(o) {
			t.Fatalf("non-finite output %v", out)
		}
	}
}

func TestSumProductDecodesRepetition(t *testing.T) {
	for _, sched := range []Schedule{Flooding, Layered} {
		g := codes.RepetitionCheck(7)
		d := New(g, uniformProbs(7, 0.05), Config{MaxIter: 50, Variant: SumProduct, Schedule: sched})
		for bit := 0; bit < 7; bit++ {
			e := gf2.VecFromSupport(7, []int{bit})
			s := g.MulVec(e)
			res := d.Decode(s)
			if !res.Success || !g.MulVec(res.ErrHat).Equal(s) {
				t.Fatalf("%v: sum-product failed on bit %d", sched, bit)
			}
		}
	}
}

func TestSumProductOnBB72(t *testing.T) {
	c, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	g := c.HZ
	d := New(g, uniformProbs(c.N, 0.01), Config{MaxIter: 100, Variant: SumProduct})
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		e := gf2.NewVec(c.N)
		for k := 0; k < 1+r.Intn(2); k++ {
			e.Set(r.Intn(c.N), true)
		}
		s := c.SyndromeOfX(e)
		res := d.Decode(s)
		if !res.Success {
			t.Fatalf("sum-product failed on weight-≤2 error (trial %d)", trial)
		}
		if !c.SyndromeOfX(res.ErrHat).Equal(s) {
			t.Fatal("syndrome not satisfied")
		}
		for _, m := range res.Marginal {
			if math.IsNaN(m) || math.IsInf(m, 0) {
				t.Fatal("non-finite marginal")
			}
		}
	}
}

func TestSumProductComparableToMinSum(t *testing.T) {
	// on easy weight-2 errors both variants should succeed; compare
	// success counts on identical syndromes
	c, err := codes.CoprimeBB154()
	if err != nil {
		t.Fatal(err)
	}
	g := c.HZ
	ms := New(g, uniformProbs(c.N, 0.02), Config{MaxIter: 60})
	sp := New(g, uniformProbs(c.N, 0.02), Config{MaxIter: 60, Variant: SumProduct})
	r := rand.New(rand.NewSource(78))
	msOK, spOK := 0, 0
	for trial := 0; trial < 25; trial++ {
		e := gf2.NewVec(c.N)
		for k := 0; k < 4; k++ {
			e.Set(r.Intn(c.N), true)
		}
		s := c.SyndromeOfX(e)
		if ms.Decode(s).Success {
			msOK++
		}
		if sp.Decode(s).Success {
			spOK++
		}
	}
	if spOK == 0 {
		t.Fatal("sum-product never succeeded")
	}
	// both should be in the same ballpark (no factor-3 collapse)
	if 3*spOK < msOK {
		t.Fatalf("sum-product (%d) collapsed vs min-sum (%d)", spOK, msOK)
	}
}
