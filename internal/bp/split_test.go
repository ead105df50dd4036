package bp

import (
	"fmt"
	"testing"

	"bpsf/internal/gf2"
	"bpsf/internal/tanner"
)

// TestSplitMatchesDecode is the byte-identity contract of the two-phase
// split iteration: at every part count, one included, a decode that splits
// every iteration returns exactly the Result of the fused Decoder.Decode,
// marginals compared by float bits, with and without oscillation
// tracking; so does Split.Decode, which splits an iteration only when a
// helper is ready and so mixes split and fused iterations. The part
// counts are newSplit's, without NewSplit's floor on a part's edges. On
// the code-capacity graphs (3 and 1 words of variables) most part counts
// exceed the number of words, so parts with an empty variable range are
// covered too. One Split serves
// all syndromes of a config, so state carried between decodes is covered
// as well. Run it under -race too: the parts share the decoder's buffers.
func TestSplitMatchesDecode(t *testing.T) {
	shots := 40
	if raceEnabled {
		shots = 6
	}
	problems := []struct {
		name string
		load func(testing.TB) (*tanner.Graph, []float64, []gf2.Vec)
	}{
		{"bb144-dem", func(tb testing.TB) (*tanner.Graph, []float64, []gf2.Vec) {
			return demProblem(tb, "bb144", 2, 3e-3, shots)
		}},
		{"bb72-dem", func(tb testing.TB) (*tanner.Graph, []float64, []gf2.Vec) {
			return demProblem(tb, "bb72", 2, 3e-3, shots)
		}},
		{"bb144-capacity", func(tb testing.TB) (*tanner.Graph, []float64, []gf2.Vec) {
			return capacityProblem(tb, "bb144", 0.06, 4*shots)
		}},
		{"rsurf5-capacity", func(tb testing.TB) (*tanner.Graph, []float64, []gf2.Vec) {
			return capacityProblem(tb, "rsurf5", 0.08, 4*shots)
		}},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		// flooding runs past the end of the α table (alphaTable)
		{"flooding", Config{MaxIter: alphaTable + 6}},
		{"oscillation", Config{MaxIter: 25, TrackOscillation: true}},
	}
	for _, pr := range problems {
		t.Run(pr.name, func(t *testing.T) {
			g, probs, syns := pr.load(t)
			for _, tc := range configs {
				want := make([]Result, len(syns))
				fused := New(g, probs, tc.cfg)
				failures := 0
				for i, s := range syns {
					want[i] = cloneResult(fused.Decode(s))
					if !want[i].Success {
						failures++
					}
				}
				if failures == 0 {
					t.Fatalf("%s: every decode converged; the corpus does not reach MaxIter", tc.name)
				}
				for _, parts := range []int{1, 2, 3, 4, 8} {
					sp := newSplit(New(g, probs, tc.cfg), parts)
					if sp.Parts() != parts {
						t.Fatalf("%s: newSplit(%d) has %d parts", tc.name, parts, sp.Parts())
					}
					for i, s := range syns {
						what := fmt.Sprintf("%s parts=%d syndrome %d", tc.name, parts, i)
						sameResult(t, what+" (every iteration split)", sp.decode(s, true), want[i])
						sameResult(t, what, sp.Decode(s), want[i])
					}
				}
			}
		})
	}
}

// TestNewSplitPartEdges checks NewSplit's floor on a part's edges: a
// code-capacity graph decodes in one part, a DEM in no more parts than
// have minPartEdges edges each.
func TestNewSplitPartEdges(t *testing.T) {
	g, probs, _ := capacityProblem(t, "bb144", 0.06, 1)
	if n := NewSplit(New(g, probs, Config{MaxIter: 10}), 4).Parts(); n != 1 {
		t.Fatalf("bb144 code capacity (%d edges): %d parts, want 1", g.E, n)
	}
	g, probs, _ = demProblem(t, "bb144", 2, 3e-3, 1)
	for _, parts := range []int{0, 1, 2, 8, 1 << 10} {
		want := max(1, min(parts, g.E/minPartEdges))
		if n := NewSplit(New(g, probs, Config{MaxIter: 10}), parts).Parts(); n != want {
			t.Fatalf("bb144 DEM (%d edges), NewSplit(%d): %d parts, want %d", g.E, parts, n, want)
		}
	}
}

// TestSplitStaysSerial checks that the schedules the split does not cover
// get one part, which decodes with the decoder itself.
func TestSplitStaysSerial(t *testing.T) {
	g, probs, syns := capacityProblem(t, "rsurf5", 0.08, 20)
	for _, cfg := range []Config{
		{MaxIter: 20, Schedule: Layered},
		{MaxIter: 5, Variant: SumProduct},
	} {
		sp := newSplit(New(g, probs, cfg), 4)
		if sp.Parts() != 1 {
			t.Fatalf("%v %v: %d parts, want 1", cfg.Schedule, cfg.Variant, sp.Parts())
		}
		ref := New(g, probs, cfg)
		for i, s := range syns {
			sameResult(t, fmt.Sprint("syndrome ", i), sp.Decode(s), cloneResult(ref.Decode(s)))
		}
	}
}

// cloneResult copies r out of its decoder's reusable buffers.
func cloneResult(r Result) Result {
	r.ErrHat = r.ErrHat.Clone()
	r.Marginal = append([]float64(nil), r.Marginal...)
	if r.FlipCount != nil {
		r.FlipCount = append([]int(nil), r.FlipCount...)
	}
	return r
}
