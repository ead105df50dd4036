package bp

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/sparse"
)

// demProblem builds the circuit-level decoding problem of a catalog code
// (memory experiment, uniform noise at p) and samples n syndromes from its
// detector error model.
func demProblem(tb testing.TB, code string, rounds int, p float64, n int) (*sparse.Mat, []float64, []gf2.Vec) {
	tb.Helper()
	css, err := codes.Get(code)
	if err != nil {
		tb.Fatal(err)
	}
	circ, err := memexp.Build(css, rounds, memexp.Uniform())
	if err != nil {
		tb.Fatal(err)
	}
	d, err := dem.Extract(circ)
	if err != nil {
		tb.Fatal(err)
	}
	sampler := dem.NewSampler(d, p, 7)
	syns := make([]gf2.Vec, n)
	for i := range syns {
		syn, _ := sampler.SampleShared()
		syns[i] = syn.Clone()
	}
	return d.H, sampler.Priors(), syns
}

// capacityProblem samples n code-capacity X-error syndromes of a catalog
// code at p.
func capacityProblem(tb testing.TB, code string, p float64, n int) (*sparse.Mat, []float64, []gf2.Vec) {
	tb.Helper()
	css, err := codes.Get(code)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	syns := make([]gf2.Vec, n)
	e := gf2.NewVec(css.N)
	for i := range syns {
		e.Zero()
		for v := 0; v < css.N; v++ {
			if r.Float64() < p {
				e.Set(v, true)
			}
		}
		syns[i] = css.SyndromeOfX(e)
	}
	return css.HZ, uniformProbs(css.N, p), syns
}

// sameResult fails t unless got and want agree field for field, with
// marginals compared by their float bits.
func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if got.Success != want.Success || got.Iterations != want.Iterations {
		t.Fatalf("%s: success/iterations %v/%d, reference %v/%d", what, got.Success, got.Iterations, want.Success, want.Iterations)
	}
	if !got.ErrHat.Equal(want.ErrHat) {
		t.Fatalf("%s: hard decision differs from the reference", what)
	}
	if (got.FlipCount == nil) != (want.FlipCount == nil) || len(got.FlipCount) != len(want.FlipCount) {
		t.Fatalf("%s: flip counts present %v, reference %v", what, got.FlipCount != nil, want.FlipCount != nil)
	}
	for i := range want.FlipCount {
		if got.FlipCount[i] != want.FlipCount[i] {
			t.Fatalf("%s: FlipCount[%d] = %d, reference %d", what, i, got.FlipCount[i], want.FlipCount[i])
		}
	}
	if len(got.Marginal) != len(want.Marginal) {
		t.Fatalf("%s: %d marginals, reference %d", what, len(got.Marginal), len(want.Marginal))
	}
	for i := range want.Marginal {
		if math.Float64bits(got.Marginal[i]) != math.Float64bits(want.Marginal[i]) {
			t.Fatalf("%s: Marginal[%d] = %v, reference %v", what, i, got.Marginal[i], want.Marginal[i])
		}
	}
}

// TestKernelMatchesReference is the byte-identity contract of the
// production kernel: for every schedule and variant, a Decoder returns
// exactly the Result of the straightforward reference implementation
// (reference_test.go) on sampled circuit-level and code-capacity
// syndromes. One decoder serves all syndromes of a config, so state
// carried between decodes is covered too. Under the race detector the
// kernel runs tens of times slower, so the corpus shrinks to 40 syndromes.
func TestKernelMatchesReference(t *testing.T) {
	shots := 300
	if raceEnabled {
		shots = 40
	}
	problems := []struct {
		name string
		load func(testing.TB) (*sparse.Mat, []float64, []gf2.Vec)
	}{
		{"bb72-dem", func(tb testing.TB) (*sparse.Mat, []float64, []gf2.Vec) {
			return demProblem(tb, "bb72", 2, 3e-3, shots)
		}},
		{"bb144-dem", func(tb testing.TB) (*sparse.Mat, []float64, []gf2.Vec) {
			return demProblem(tb, "bb144", 2, 3e-3, shots)
		}},
		{"rsurf5-capacity", func(tb testing.TB) (*sparse.Mat, []float64, []gf2.Vec) {
			return capacityProblem(tb, "rsurf5", 0.08, shots)
		}},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		// flooding runs past the end of the α table (alphaTable); the
		// other caps keep the failing decodes short
		{"flooding", Config{MaxIter: alphaTable + 6}},
		{"layered", Config{MaxIter: 25, Schedule: Layered}},
		{"oscillation", Config{MaxIter: 25, TrackOscillation: true}},
		{"layered-oscillation", Config{MaxIter: 25, Schedule: Layered, TrackOscillation: true}},
		{"fixed-alpha", Config{MaxIter: 25, FixedAlpha: 0.625}},
		{"sum-product", Config{MaxIter: 3, Variant: SumProduct}},
		{"sum-product-layered", Config{MaxIter: 3, Variant: SumProduct, Schedule: Layered}},
	}
	for _, pr := range problems {
		t.Run(pr.name, func(t *testing.T) {
			g, probs, syns := pr.load(t)
			for _, tc := range configs {
				t.Run(tc.name, func(t *testing.T) {
					d := New(g, probs, tc.cfg)
					ref := newReference(d)
					failures := 0
					for i, s := range syns {
						want := ref.decode(s)
						sameResult(t, fmt.Sprint("syndrome ", i), d.Decode(s), want)
						if !want.Success {
							failures++
						}
					}
					t.Logf("%d/%d reference decodes failed", failures, len(syns))
				})
			}
		})
	}
}

// TestKernelStopThenDecode ends a decode mid-run through a Bound and
// checks both the cut Result and the next decode on the same Decoder
// against the reference: a cut must leave no state behind.
func TestKernelStopThenDecode(t *testing.T) {
	g, probs, syns := demProblem(t, "bb72", 2, 3e-3, 20)
	// a dense random syndrome that BP cannot satisfy
	hard := gf2.NewVec(g.Rows())
	r := rand.New(rand.NewSource(8))
	for c := 0; c < g.Rows(); c++ {
		hard.Set(c, r.Intn(3) == 0)
	}
	// step 50, key 2 beats the decode's iteration 38 at step 12+38, key 3
	var best atomic.Uint64
	best.Store(50<<32 | 2)
	const ran = 37
	for _, cfg := range []Config{
		{MaxIter: 1 << 20, TrackOscillation: true},
		{MaxIter: 1 << 20, Schedule: Layered},
	} {
		d := New(g, probs, cfg)
		cut := d.DecodeStop(hard, &Bound{Best: &best, Base: 12, Key: 3})
		if cut.Success || cut.Iterations != ran {
			t.Fatalf("cut decode: success %v after %d iterations, want a failure after %d", cut.Success, cut.Iterations, ran)
		}
		// the reference with the cap at the cut runs the same iterations
		refCfg := cfg
		refCfg.MaxIter = ran
		ref := newReference(New(g, probs, refCfg))
		sameResult(t, "cut decode", cut, ref.decode(hard))
		// lower the cap so that the failing decodes below stay short
		ref.cfg.MaxIter = 100
		d.cfg.MaxIter = 100
		for i, s := range syns {
			sameResult(t, fmt.Sprint("decode after cut ", i), d.Decode(s), ref.decode(s))
		}
	}
}
