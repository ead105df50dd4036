package uf

import (
	"math/rand"
	"testing"

	"bpsf/internal/bp"
	"bpsf/internal/bposd"
	"bpsf/internal/codes"
	"bpsf/internal/gf2"
	"bpsf/internal/noise"
	"bpsf/internal/osd"
)

// benchSyndromes samples code-capacity X-error syndromes of the
// distance-5 rotated surface code at p=0.01 — the benchmark gate workload
// shared by BenchmarkUFDecode and BenchmarkBPOSDDecode so their numbers
// are directly comparable.
func benchSyndromes(b *testing.B) ([]gf2.Vec, int) {
	b.Helper()
	c, err := codes.RotatedSurface5()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	syndromes := make([]gf2.Vec, 64)
	for i := range syndromes {
		e := gf2.NewVec(c.N)
		for q := 0; q < c.N; q++ {
			if rng.Float64() < 0.01 {
				e.Set(q, true)
			}
		}
		syndromes[i] = c.SyndromeOfX(e)
	}
	return syndromes, c.N
}

func BenchmarkUFDecode(b *testing.B) {
	syndromes, _ := benchSyndromes(b)
	c, _ := codes.RotatedSurface5()
	d := New(c.HZ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(syndromes[i%len(syndromes)])
	}
}

func BenchmarkBPOSDDecode(b *testing.B) {
	syndromes, n := benchSyndromes(b)
	c, _ := codes.RotatedSurface5()
	d := bposd.New(c.HZ, noise.UniformPriors(n, noise.MarginalProb(0.01)),
		bp.Config{MaxIter: 100}, osd.Config{Method: osd.OSDCS, Order: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decode(syndromes[i%len(syndromes)])
	}
}

// BenchmarkUFDecodeMemoMiss decodes rsurf5 r5 circuit-DEM syndromes with
// more than two defects at p=0.004: general-path growth and cluster
// solves, no memo hits.
func BenchmarkUFDecodeMemoMiss(b *testing.B) {
	d := circuitDEM(b, "rsurf5", 5)
	syndromes := memoMissSyndromes(d, 0.004, 256, 1)
	dec := New(d.H)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Decode(syndromes[i%len(syndromes)])
	}
}
