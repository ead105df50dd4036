package bpsf

import (
	"testing"

	"bpsf/internal/bp"
	"bpsf/internal/codes"
	"bpsf/internal/gf2"
	"bpsf/internal/noise"
	"bpsf/internal/sparse"
)

// benchSyndromes samples n code-capacity syndromes of the gross code at
// rate p: a mix of BP-converging and post-processing shots.
func benchSyndromes(tb testing.TB, n int, p float64) (*sparse.Mat, int, []gf2.Vec) {
	tb.Helper()
	c, err := codes.BB144()
	if err != nil {
		tb.Fatal(err)
	}
	sampler := noise.NewCapacitySampler(c.N, p, 9)
	syndromes := make([]gf2.Vec, n)
	for i := range syndromes {
		ex, _ := sampler.Sample()
		syndromes[i] = c.SyndromeOfX(ex)
	}
	return c.HZ, c.N, syndromes
}

// BenchmarkDecodeBB144Exhaustive measures the full BP-SF decode (BP50 init,
// |Φ|=6, wmax=2 exhaustive trials) over sampled code-capacity syndromes.
func BenchmarkDecodeBB144Exhaustive(b *testing.B) {
	h, n, syndromes := benchSyndromes(b, 32, 0.05)
	d, err := New(h, noise.UniformPriors(n, noise.MarginalProb(0.05)), Config{
		Init:    bp.Config{MaxIter: 50},
		PhiSize: 6, WMax: 2, Policy: Exhaustive,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(syndromes[i%len(syndromes)])
	}
}

// TestDecodeZeroAllocSteadyState pins the allocation-free hot path of the
// BP-SF decoder: after warm-up, decoding must not allocate on either the
// init-converges path or the speculative syndrome-flip path, for both
// trial policies and for one lane as for several.
func TestDecodeZeroAllocSteadyState(t *testing.T) {
	h, n, syndromes := benchSyndromes(t, 16, 0.12)
	priors := noise.UniformPriors(n, noise.MarginalProb(0.12))
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"exhaustive", Config{
			Init:    bp.Config{MaxIter: 50},
			PhiSize: 6, WMax: 2, Policy: Exhaustive,
		}},
		{"sampled", Config{
			Init:    bp.Config{MaxIter: 50},
			Trial:   bp.Config{MaxIter: 30},
			PhiSize: 10, WMax: 3, NS: 4, Policy: Sampled,
		}},
	} {
		for _, workers := range []int{1, 2, 4} {
			cfg := tc.cfg
			cfg.Workers = workers
			d, err := New(h, priors, cfg)
			if err != nil {
				t.Fatal(err)
			}
			post := 0
			for _, s := range syndromes { // warm-up: grow all scratch to capacity
				if d.Decode(s).UsedPostProcessing {
					post++
				}
			}
			if post == 0 {
				t.Fatalf("%s: no syndrome exercised the speculative stage; raise p", tc.name)
			}
			i := 0
			allocs := testing.AllocsPerRun(2*len(syndromes), func() {
				d.Decode(syndromes[i%len(syndromes)])
				i++
			})
			if allocs != 0 {
				t.Errorf("%s workers=%d: %v allocs per steady-state decode, want 0", tc.name, workers, allocs)
			}
		}
	}
}
