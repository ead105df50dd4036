package bp

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/gf2"
	"bpsf/internal/sparse"
)

func uniformProbs(n int, p float64) []float64 {
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = p
	}
	return probs
}

func TestLLRFromProb(t *testing.T) {
	if LLRFromProb(0) != maxLLR || LLRFromProb(1) != -maxLLR {
		t.Fatal("LLR clamping wrong")
	}
	if math.Abs(LLRFromProb(0.5)) > 1e-12 {
		t.Fatal("LLR(0.5) != 0")
	}
	if l := LLRFromProb(0.01); math.Abs(l-math.Log(99)) > 1e-9 {
		t.Fatalf("LLR(0.01) = %v", l)
	}
}

func TestDecodeZeroSyndrome(t *testing.T) {
	g := codes.RepetitionCheck(5)
	d := New(g, uniformProbs(5, 0.05), Config{MaxIter: 50})
	res := d.Decode(gf2.NewVec(4))
	if !res.Success || !res.ErrHat.IsZero() {
		t.Fatalf("zero syndrome should decode to zero error: %+v", res)
	}
	if res.Iterations != 1 {
		t.Fatalf("zero syndrome should converge in 1 iteration, got %d", res.Iterations)
	}
}

func TestDecodeSingleErrorRepetition(t *testing.T) {
	for _, sched := range []Schedule{Flooding, Layered} {
		g := codes.RepetitionCheck(7)
		d := New(g, uniformProbs(7, 0.05), Config{MaxIter: 50, Schedule: sched})
		for bit := 0; bit < 7; bit++ {
			e := gf2.VecFromSupport(7, []int{bit})
			s := g.MulVec(e)
			res := d.Decode(s)
			if !res.Success {
				t.Fatalf("%v: decode failed for bit %d", sched, bit)
			}
			// decoded error must have the same syndrome; for the repetition
			// code with a single error it should be the error itself or its
			// complement — check syndrome only
			if !g.MulVec(res.ErrHat).Equal(s) {
				t.Fatalf("%v: syndrome mismatch for bit %d", sched, bit)
			}
		}
	}
}

func TestDecodeBB72SingleAndDoubleErrors(t *testing.T) {
	c, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	g := c.HZ // decode X errors
	for _, sched := range []Schedule{Flooding, Layered} {
		d := New(g, uniformProbs(c.N, 0.01), Config{MaxIter: 100, Schedule: sched})
		r := rand.New(rand.NewSource(60))
		for trial := 0; trial < 25; trial++ {
			w := 1 + r.Intn(2)
			e := gf2.NewVec(c.N)
			for k := 0; k < w; k++ {
				e.Set(r.Intn(c.N), true)
			}
			s := c.SyndromeOfX(e)
			res := d.Decode(s)
			if !res.Success {
				t.Fatalf("%v: BP failed on weight-%d error (trial %d)", sched, w, trial)
			}
			if !c.SyndromeOfX(res.ErrHat).Equal(s) {
				t.Fatalf("%v: returned estimate does not satisfy syndrome", sched)
			}
			// residual must not be a logical error for such low weights
			resid := e.Clone()
			resid.Xor(res.ErrHat)
			if c.IsLogicalX(resid) {
				t.Fatalf("%v: logical error on weight-%d input", sched, w)
			}
		}
	}
}

func TestDecodeReusableAcrossCalls(t *testing.T) {
	c, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	g := c.HZ
	d := New(g, uniformProbs(c.N, 0.01), Config{MaxIter: 100})
	e := gf2.VecFromSupport(c.N, []int{3})
	s := c.SyndromeOfX(e)
	first := d.Decode(s)
	// Result.ErrHat aliases the decoder's reusable buffer: clone before the
	// next decode overwrites it
	firstErr := first.ErrHat.Clone()
	firstIters := first.Iterations
	// garbage decode in between
	d.Decode(c.SyndromeOfX(gf2.VecFromSupport(c.N, []int{1, 5, 9})))
	second := d.Decode(s)
	if !firstErr.Equal(second.ErrHat) || firstIters != second.Iterations {
		t.Fatal("decoder state leaks between calls")
	}
}

func TestOscillationTracking(t *testing.T) {
	c, err := codes.BB144()
	if err != nil {
		t.Fatal(err)
	}
	g := c.HZ
	d := New(g, uniformProbs(c.N, 0.05), Config{MaxIter: 30, TrackOscillation: true})
	r := rand.New(rand.NewSource(61))
	// inject a big error to likely cause non-convergence and oscillation
	e := gf2.NewVec(c.N)
	for k := 0; k < 20; k++ {
		e.Set(r.Intn(c.N), true)
	}
	res := d.Decode(c.SyndromeOfX(e))
	if res.FlipCount == nil {
		t.Fatal("flip counts missing")
	}
	total := 0
	for _, f := range res.FlipCount {
		total += f
	}
	if total == 0 && !res.Success {
		t.Fatal("failed decode with zero flips is implausible")
	}
	// without tracking, FlipCount must be nil
	d2 := New(g, uniformProbs(c.N, 0.05), Config{MaxIter: 30})
	if d2.Decode(c.SyndromeOfX(e)).FlipCount != nil {
		t.Fatal("flip counts present without tracking")
	}
}

func TestDecodeStopAborts(t *testing.T) {
	c, err := codes.BB144()
	if err != nil {
		t.Fatal(err)
	}
	g := c.HZ
	d := New(g, uniformProbs(c.N, 0.05), Config{MaxIter: 1000})
	r := rand.New(rand.NewSource(62))
	e := gf2.NewVec(c.N)
	for k := 0; k < 25; k++ {
		e.Set(r.Intn(c.N), true)
	}
	s := c.SyndromeOfX(e)
	// the best pair (step 5, key 1) beats the first iteration at step 5,
	// key 2, but not at step 5, key 0 or at step 4
	var best atomic.Uint64
	best.Store(5<<32 | 1)
	for _, tc := range []struct {
		base, key, iters int
	}{{4, 2, 0}, {4, 0, 1}, {3, 2, 1}, {0, 7, 4}} {
		res := d.DecodeStop(s, &Bound{Best: &best, Base: tc.base, Key: tc.key})
		if res.Success {
			t.Fatalf("%+v: bounded decode reported success", tc)
		}
		if res.Iterations != tc.iters {
			t.Fatalf("%+v: bounded decode ran %d iterations, want %d", tc, res.Iterations, tc.iters)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := codes.RepetitionCheck(5)
	d := New(g, uniformProbs(5, 0.05), Config{MaxIter: 50})
	d2 := d.Clone()
	e := gf2.VecFromSupport(5, []int{2})
	s := g.MulVec(e)
	r1 := d.Decode(s)
	r2 := d2.Decode(s)
	if !r1.ErrHat.Equal(r2.ErrHat) {
		t.Fatal("clone decodes differently")
	}
}

func TestDegreeOneCheckNoNaN(t *testing.T) {
	// H with a degree-1 check must not blow up to NaN/Inf marginals
	h := sparse.FromRows([][]int{
		{1, 0, 0},
		{1, 1, 0},
		{0, 1, 1},
	})
	g := h
	d := New(g, uniformProbs(3, 0.1), Config{MaxIter: 20})
	res := d.Decode(gf2.VecFromInts([]int{1, 0, 1}))
	for _, m := range res.Marginal {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("marginal not finite: %v", res.Marginal)
		}
	}
	if !res.Success {
		t.Fatal("simple system should decode")
	}
	if !h.MulVec(res.ErrHat).Equal(gf2.VecFromInts([]int{1, 0, 1})) {
		t.Fatal("syndrome not satisfied")
	}
}

func TestAdaptiveAlphaSequence(t *testing.T) {
	g := codes.RepetitionCheck(3)
	d := New(g, uniformProbs(3, 0.1), Config{MaxIter: 10})
	if a := d.alpha(1); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("alpha(1) = %v, want 0.5", a)
	}
	if a := d.alpha(3); math.Abs(a-0.875) > 1e-12 {
		t.Fatalf("alpha(3) = %v, want 0.875", a)
	}
	df := New(g, uniformProbs(3, 0.1), Config{MaxIter: 10, FixedAlpha: 0.8})
	if df.alpha(7) != 0.8 {
		t.Fatal("fixed alpha ignored")
	}
}

func TestScheduleString(t *testing.T) {
	if Flooding.String() != "flooding" || Layered.String() != "layered" || Schedule(9).String() != "unknown" {
		t.Fatal("Schedule.String wrong")
	}
}

func TestConfigDefaults(t *testing.T) {
	g := codes.RepetitionCheck(3)
	d := New(g, uniformProbs(3, 0.1), Config{})
	if d.Config().MaxIter != 100 {
		t.Fatal("default MaxIter not applied")
	}
}
