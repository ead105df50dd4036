package sim

// Cross-decoder conformance property suite: every registered decoder
// spec (DecoderSpecs: bp, bposd, bpsf, uf, windowed) is held to the same two
// harness-facing invariants on small BB, HGP and surface instances:
//
//  1. Residual syndrome: whenever Decode reports Success, the returned
//     correction reproduces the input syndrome exactly (H·ErrHat = s).
//  2. Worker-count invariance: a sharded Monte-Carlo run produces
//     bit-identical statistics for any Workers value.
//
// A decoder added to the registry is covered automatically.

import (
	"testing"

	"bpsf/internal/code"
	"bpsf/internal/codes"
	"bpsf/internal/decoding"
	"bpsf/internal/gf2"
	"bpsf/internal/noise"
	"bpsf/internal/window"
)

// conformanceCodes are the decoding problems of the suite: a matchable
// code with boundary (rotated surface), one without (toric), a hypergraph
// product (unrotated surface) and a weight-3-column BB code.
func conformanceCodes(t *testing.T) []*code.CSS {
	t.Helper()
	var out []*code.CSS
	for _, build := range []func() (*code.CSS, error){
		codes.RotatedSurface3,
		codes.Toric4,
		func() (*code.CSS, error) { return codes.Surface(3) },
		codes.BB72,
	} {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

// TestConformanceResidualSyndrome samples random X errors and asserts the
// residual-syndrome invariant, table-driven over (decoder, code, seed).
func TestConformanceResidualSyndrome(t *testing.T) {
	reg := DecoderSpecs()
	css := conformanceCodes(t)
	seeds := []int64{1, 12345, 9_000_000_001}
	const p, shotsPerSeed = 0.04, 40
	for _, name := range DecoderNames() {
		mk := reg[name].NewDecoder
		for _, c := range css {
			dec, err := mk(c.HZ, noise.UniformPriors(c.N, noise.MarginalProb(p)))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.Name, err)
			}
			for _, seed := range seeds {
				sampler := noise.NewCapacitySampler(c.N, p, seed)
				Reseed(dec, seed)
				ex := gf2.NewVec(c.N)
				ez := gf2.NewVec(c.N)
				s := gf2.NewVec(c.HZ.Rows())
				converged := 0
				for shot := 0; shot < shotsPerSeed; shot++ {
					sampler.SampleInto(ex, ez)
					c.SyndromeOfXInto(s, ex)
					out := dec.Decode(s)
					if !out.Success {
						continue
					}
					converged++
					if got := c.HZ.MulVec(out.ErrHat); !got.Equal(s) {
						t.Fatalf("%s on %s (seed %d, shot %d): converged but H·ErrHat != s",
							name, c.Name, seed, shot)
					}
				}
				if converged == 0 {
					t.Errorf("%s on %s (seed %d): no shot converged; the invariant was never exercised",
						name, c.Name, seed)
				}
			}
		}
	}
}

// TestWindowedConformanceResidualInvariant holds the sliding-window
// wrapper to its commit induction over EVERY registered spec: on a
// round-by-round stream (rows-as-rounds, W=3, C=1), after each window whose
// inner decodes have all succeeded so far, the residual syndrome below the
// commit boundary is zero; and a fully successful stream reproduces the
// input syndrome exactly. A decoder added to the registry is covered
// automatically as a windowed inner.
func TestWindowedConformanceResidualInvariant(t *testing.T) {
	reg := DecoderSpecs()
	css := conformanceCodes(t)
	seeds := []int64{1, 12345}
	const p, shotsPerSeed, w, c = 0.04, 30, 3, 1
	for _, name := range DecoderNames() {
		mk := reg[name].NewDecoder
		for _, cs := range css {
			rows := cs.HZ.Rows()
			wd, err := window.New(cs.HZ, noise.UniformPriors(cs.N, noise.MarginalProb(p)),
				window.RowRounds(rows), w, c, decoding.Factory(mk))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cs.Name, err)
			}
			st := wd.NewStream()
			for _, seed := range seeds {
				wd.Reseed(seed)
				sampler := noise.NewCapacitySampler(cs.N, p, seed)
				ex := gf2.NewVec(cs.N)
				ez := gf2.NewVec(cs.N)
				s := gf2.NewVec(rows)
				bits := gf2.NewVec(1)
				converged := 0
				for shot := 0; shot < shotsPerSeed; shot++ {
					sampler.SampleInto(ex, ez)
					cs.SyndromeOfXInto(s, ex)
					st.Reset()
					okSoFar := true
					for r := 0; r < rows; r++ {
						bits.Set(0, s.Get(r))
						commits, err := st.PushRound(bits)
						if err != nil {
							t.Fatal(err)
						}
						for _, cm := range commits {
							okSoFar = okSoFar && cm.Success
							if !okSoFar {
								continue
							}
							// rows-as-rounds: round index == detector index
							for det := 0; det < cm.EndRound; det++ {
								if st.Residual().Get(det) {
									t.Fatalf("%s on %s (seed %d, shot %d): residual row %d nonzero inside committed region [0,%d)",
										name, cs.Name, seed, shot, det, cm.EndRound)
								}
							}
						}
					}
					out := st.Finish()
					if !out.Success {
						continue
					}
					converged++
					if got := cs.HZ.MulVec(out.ErrHat); !got.Equal(s) {
						t.Fatalf("%s on %s (seed %d, shot %d): windowed Success but H·ErrHat != s",
							name, cs.Name, seed, shot)
					}
				}
				if converged == 0 {
					t.Errorf("%s on %s (seed %d): no windowed shot converged; the invariant was never exercised",
						name, cs.Name, seed)
				}
			}
		}
	}
}

// TestWindowedConformanceWorkerInvariance runs the windowed wrapper of
// every registered decoder through the sharded engine at several worker
// counts: statistics must be bit-identical (the engine determinism
// contract extended to the window subsystem).
func TestWindowedConformanceWorkerInvariance(t *testing.T) {
	reg := DecoderSpecs()
	css := conformanceCodes(t)
	for _, name := range DecoderNames() {
		spec := reg[name]
		spec.Window, spec.Commit = 3, 1
		mk := spec.NewDecoder
		for _, c := range css {
			var ref *Result
			for _, workers := range []int{1, 8} {
				res, err := RunCapacity(c, mk, Config{
					P: 0.05, Shots: 64, Seed: 1717, Workers: workers,
				})
				if err != nil {
					t.Fatalf("windowed %s on %s: %v", name, c.Name, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.Failures != ref.Failures || res.Shots != ref.Shots || res.AvgIters != ref.AvgIters {
					t.Errorf("windowed %s on %s: workers=%d diverged: failures %d vs %d, shots %d vs %d, avgIters %v vs %v",
						name, c.Name, workers, res.Failures, ref.Failures, res.Shots, ref.Shots, res.AvgIters, ref.AvgIters)
				}
			}
		}
	}
}

// TestConformanceWorkerInvariance runs every registered decoder through
// the sharded engine at several worker counts: Failures, Shots and
// AvgIters must be bit-identical (the engine determinism contract,
// DESIGN.md §4, extended to the whole registry).
func TestConformanceWorkerInvariance(t *testing.T) {
	reg := DecoderSpecs()
	css := conformanceCodes(t)
	for _, name := range DecoderNames() {
		mk := reg[name].NewDecoder
		for _, c := range css {
			var ref *Result
			for _, workers := range []int{1, 3, 8} {
				res, err := RunCapacity(c, mk, Config{
					P: 0.05, Shots: 96, Seed: 4242, Workers: workers,
				})
				if err != nil {
					t.Fatalf("%s on %s: %v", name, c.Name, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if res.Failures != ref.Failures || res.Shots != ref.Shots || res.AvgIters != ref.AvgIters {
					t.Errorf("%s on %s: workers=%d diverged: failures %d vs %d, shots %d vs %d, avgIters %v vs %v",
						name, c.Name, workers, res.Failures, ref.Failures, res.Shots, ref.Shots, res.AvgIters, ref.AvgIters)
				}
			}
		}
	}
}
