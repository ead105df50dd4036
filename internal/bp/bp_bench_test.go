package bp

import (
	"fmt"
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/gf2"
)

// BenchmarkIterationBB144Capacity measures raw min-sum iteration throughput
// on the code-capacity Tanner graph of the gross code.
func BenchmarkIterationBB144Capacity(b *testing.B) {
	c, err := codes.BB144()
	if err != nil {
		b.Fatal(err)
	}
	g := c.HZ
	probs := make([]float64, c.N)
	for i := range probs {
		probs[i] = 0.01
	}
	d := New(g, probs, Config{MaxIter: 1})
	s := gf2.NewVec(g.Rows())
	s.Set(3, true)
	s.Set(17, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(s) // exactly 1 iteration (will not converge)
	}
	b.ReportMetric(float64(g.NNZ()), "edges")
}

// BenchmarkDecodeBB144Hard measures a full failing decode at the trial cap.
func BenchmarkDecodeBB144Hard(b *testing.B) {
	c, err := codes.BB144()
	if err != nil {
		b.Fatal(err)
	}
	g := c.HZ
	probs := make([]float64, c.N)
	for i := range probs {
		probs[i] = 0.01
	}
	d := New(g, probs, Config{MaxIter: 100})
	// weight-1 syndrome: inconsistent-looking target that BP cannot satisfy
	s := gf2.NewVec(g.Rows())
	s.Set(3, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(s)
	}
}

// TestDecodeZeroAllocSteadyState pins the allocation-free hot path: after
// warm-up, a BP decode must not allocate — for either schedule, with and
// without oscillation tracking, with a fixed α, on both converging and
// failing syndromes, on a Clone as on the original, and split into parts
// (whose helper goroutines come from a closure built in newSplit).
func TestDecodeZeroAllocSteadyState(t *testing.T) {
	c, err := codes.BB144()
	if err != nil {
		t.Fatal(err)
	}
	g := c.HZ
	probs := make([]float64, c.N)
	for i := range probs {
		probs[i] = 0.01
	}
	converging := c.SyndromeOfX(gf2.VecFromSupport(c.N, []int{3}))
	failing := gf2.NewVec(g.Rows())
	failing.Set(3, true)
	for _, tc := range []struct {
		name string
		cfg  Config
		s    gf2.Vec
	}{
		{"flooding-converges", Config{MaxIter: 100}, converging},
		{"flooding-fails", Config{MaxIter: 30}, failing},
		{"layered", Config{MaxIter: 30, Schedule: Layered}, failing},
		{"oscillation", Config{MaxIter: 30, TrackOscillation: true}, failing},
		{"fixed-alpha", Config{MaxIter: 30, FixedAlpha: 0.625}, failing},
		{"sum-product", Config{MaxIter: 10, Variant: SumProduct}, failing},
	} {
		d := New(g, probs, tc.cfg)
		for _, dec := range []*Decoder{d, d.Clone()} {
			dec.Decode(tc.s) // warm-up (lazy sum-product scratch)
			allocs := testing.AllocsPerRun(20, func() { dec.Decode(tc.s) })
			if allocs != 0 {
				t.Errorf("%s (clone %v): %v allocs per steady-state decode, want 0", tc.name, dec != d, allocs)
			}
		}
	}
	for _, parts := range []int{2, 4} {
		sp := newSplit(New(g, probs, Config{MaxIter: 30, TrackOscillation: true}), parts)
		for _, s := range []gf2.Vec{converging, failing} {
			sp.decode(s, true)
			allocs := testing.AllocsPerRun(20, func() { sp.decode(s, true) })
			if allocs != 0 {
				t.Errorf("split parts=%d: %v allocs per steady-state decode, want 0", parts, allocs)
			}
		}
	}
}

// BenchmarkIterationBB144DEM measures min-sum iteration cost on the graph
// the paper's headline decodes: the detector error model of the gross code
// (2 rounds, p = 3e-3; 288 checks, 7869 mechanisms, 47,556 edges). Each op
// is one BP100 decode of a sampled syndrome; ns/edge is the time per
// iteration and edge, as perfbench's bp.ns_per_edge_update counts it.
// "fused" is Decoder.Decode; "two-phase" splits every iteration into the
// given number of parts, one included, which Split.Decode never does (it
// decodes one part fused); "split" is Split.Decode, which splits an
// iteration only while a helper is ready.
func BenchmarkIterationBB144DEM(b *testing.B) {
	g, probs, syns := demProblem(b, "bb144", 2, 3e-3, 64)
	bench := func(b *testing.B, decode func(gf2.Vec) Result) {
		iters := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iters += decode(syns[i%len(syns)]).Iterations
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(iters)*float64(g.NNZ())), "ns/edge")
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	}
	b.Run("fused", func(b *testing.B) {
		bench(b, New(g, probs, Config{MaxIter: 100}).Decode)
	})
	for _, parts := range []int{1, 2} {
		b.Run(fmt.Sprintf("two-phase/parts=%d", parts), func(b *testing.B) {
			sp := newSplit(New(g, probs, Config{MaxIter: 100}), parts)
			bench(b, func(s gf2.Vec) Result { return sp.decode(s, true) })
		})
	}
	b.Run("split/parts=2", func(b *testing.B) {
		bench(b, NewSplit(New(g, probs, Config{MaxIter: 100}), 2).Decode)
	})
}
