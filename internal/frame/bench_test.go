package frame

import (
	"testing"

	"bpsf/internal/dem"
	"bpsf/internal/gf2"
)

// BenchmarkBatchSample measures the word-parallel circuit sampler on the
// acceptance configuration — a 5-round rsurf5 memory experiment — reported
// per shot (including the transpose into per-shot packed rows). Compare
// with BenchmarkScalarSample: the batch path must be ≥ 8× faster.
func BenchmarkBatchSample(b *testing.B) {
	circ, _ := buildMemexp(b, "rsurf5", 5)
	s := NewCircuitSampler(circ, 0.003, 1)
	var blk Batch
	var pk Packed
	syn := gf2.NewVec(s.NumDets())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%BlockShots == 0 {
			s.SampleBlock(&blk)
			Pack(&blk, &pk)
		}
		if err := syn.SetBytes(pk.Syndrome(i % BlockShots)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalarSample is the retained one-shot-at-a-time frame sampler
// on the same experiment.
func BenchmarkScalarSample(b *testing.B) {
	circ, _ := buildMemexp(b, "rsurf5", 5)
	s := NewScalarSampler(circ, 0.003, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleShared()
	}
}

// BenchmarkDEMBatchSample measures the word-parallel DEM sampler per shot
// on the extracted 5-round rsurf5 DEM (the sim engine's batch path).
func BenchmarkDEMBatchSample(b *testing.B) {
	_, d := buildMemexp(b, "rsurf5", 5)
	s := NewDEMSampler(d, 0.003, 1)
	var blk Batch
	var pk Packed
	syn := gf2.NewVec(d.NumDets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%BlockShots == 0 {
			s.SampleBlock(&blk)
			Pack(&blk, &pk)
		}
		if err := syn.SetBytes(pk.Syndrome(i % BlockShots)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDEMScalarSample is the test-only per-shot reference
// DEMScalarSampler on the same model.
func BenchmarkDEMScalarSample(b *testing.B) {
	_, d := buildMemexp(b, "rsurf5", 5)
	s := NewDEMScalarSampler(d, 0.003, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleShared()
	}
}

// BenchmarkDEMShotSample is the shipped per-shot reader dem.Sampler, which
// hands out the lanes of the block draw one shot at a time.
func BenchmarkDEMShotSample(b *testing.B) {
	_, d := buildMemexp(b, "rsurf5", 5)
	s := dem.NewSampler(d, 0.003, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleShared()
	}
}

// TestSamplerZeroAlloc gates the four syndrome samplers on the 5-round
// rsurf5 memory experiment: at steady state none allocates. Each run of
// a block sampler or of the per-shot DEM reader draws a whole block, so a
// block refill that allocated would show.
func TestSamplerZeroAlloc(t *testing.T) {
	circ, d := buildMemexp(t, "rsurf5", 5)
	const p = 0.003
	circBatch := NewCursor(NewCircuitSampler(circ, p, 1).SampleBlock)
	demBatch := NewCursor(NewDEMSampler(d, p, 1).SampleBlock)
	circScalar := NewScalarSampler(circ, p, 1)
	demScalar := dem.NewSampler(d, p, 1)
	for _, tc := range []struct {
		name string
		draw func()
	}{
		{"circuit-batch", func() {
			for i := 0; i < BlockShots; i++ {
				circBatch.Next()
			}
		}},
		{"dem-batch", func() {
			for i := 0; i < BlockShots; i++ {
				demBatch.Next()
			}
		}},
		{"circuit-scalar", func() { circScalar.SampleShared() }},
		{"dem-scalar", func() {
			for i := 0; i < BlockShots; i++ {
				demScalar.SampleShared()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(20, tc.draw); allocs != 0 {
				t.Errorf("%v allocs per run, want 0", allocs)
			}
		})
	}
}

// TestBatchSamplerSpeedup is the enforced acceptance gate: the batch
// circuit sampler must be ≥ 8× faster per shot than the scalar one on
// the 5-round rsurf5 memory experiment (observed ~16×, so the gate has
// 2× headroom against runner noise). Both sides are measured back to
// back on the same core via testing.Benchmark. Skipped under race or
// coverage instrumentation (timings are skewed there); CI runs it in
// the plain-mode benchmark-smoke step instead.
func TestBatchSamplerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-ratio gate")
	}
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("benchmark-ratio gate: skewed under race/coverage instrumentation")
	}
	circ, _ := buildMemexp(t, "rsurf5", 5)

	batch := testing.Benchmark(func(b *testing.B) {
		s := NewCircuitSampler(circ, 0.003, 1)
		cur := NewCursor(s.SampleBlock)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur.Next()
		}
	})
	scalar := testing.Benchmark(func(b *testing.B) {
		s := NewScalarSampler(circ, 0.003, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SampleShared()
		}
	})
	bns, sns := batch.NsPerOp(), scalar.NsPerOp()
	if bns <= 0 || sns <= 0 {
		t.Fatalf("degenerate timings: batch %d ns/shot, scalar %d ns/shot", bns, sns)
	}
	ratio := float64(sns) / float64(bns)
	t.Logf("batch %d ns/shot, scalar %d ns/shot: %.1f× speedup", bns, sns, ratio)
	if ratio < 8 {
		t.Errorf("batch sampler only %.1f× faster than scalar (acceptance floor 8×)", ratio)
	}
}
