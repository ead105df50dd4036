package bpsf

import (
	"fmt"
	"math/rand"
)

// TrialPolicy selects how trial vectors are generated from the candidate
// set Φ.
type TrialPolicy int

const (
	// Exhaustive enumerates every subset of Φ with weight 1..WMax, lowest
	// weight first (the paper's code-capacity setting, typically WMax=1).
	Exhaustive TrialPolicy = iota
	// Sampled draws NS random subsets of each weight 1..WMax (the paper's
	// circuit-level setting: ns trial vectors per weight).
	Sampled
)

func (p TrialPolicy) String() string {
	switch p {
	case Exhaustive:
		return "exhaustive"
	case Sampled:
		return "sampled"
	default:
		return "unknown"
	}
}

// maxExhaustiveTrials bounds combinatorial explosion in Exhaustive mode.
const maxExhaustiveTrials = 200000

// trialGenerator produces the trial vectors (as candidate-index subsets of
// Φ) for one failed decode, in reusable scratch: all trial supports live
// in one arena slice and the returned [][]int views are rebuilt over it
// each call, so trial generation in the decode hot path is allocation-free
// after warm-up. The returned slices stay valid until the next generate
// call.
type trialGenerator struct {
	arena   []int   // concatenated trial supports
	lens    []int   // per-trial weights
	views   [][]int // returned slice headers over arena
	scratch []int   // Fisher–Yates scratch (Sampled policy)
}

func (g *trialGenerator) generate(phi []int, policy TrialPolicy, wMax, ns int, rng *rand.Rand) ([][]int, error) {
	if wMax <= 0 {
		return nil, fmt.Errorf("bpsf: wMax must be positive, got %d", wMax)
	}
	g.arena = g.arena[:0]
	g.lens = g.lens[:0]
	switch policy {
	case Exhaustive:
		if err := g.appendExhaustive(phi, wMax); err != nil {
			return nil, err
		}
	case Sampled:
		if ns <= 0 {
			return nil, fmt.Errorf("bpsf: ns must be positive for sampled trials, got %d", ns)
		}
		g.appendSampled(phi, wMax, ns, rng)
	default:
		return nil, fmt.Errorf("bpsf: unknown trial policy %d", policy)
	}
	// materialize views only after the arena stopped growing (appends may
	// have reallocated it)
	g.views = g.views[:0]
	off := 0
	for _, w := range g.lens {
		g.views = append(g.views, g.arena[off:off+w:off+w])
		off += w
	}
	return g.views, nil
}

func (g *trialGenerator) appendExhaustive(phi []int, wMax int) error {
	if wMax > len(phi) {
		wMax = len(phi)
	}
	if wMax > cap(g.scratch) {
		g.scratch = make([]int, wMax)
	}
	for w := 1; w <= wMax; w++ {
		if err := combinations(g.scratch[:w], len(phi), func(sel []int) error {
			if len(g.lens) >= maxExhaustiveTrials {
				return fmt.Errorf("bpsf: exhaustive trial count exceeds %d (|Φ|=%d, wMax=%d); use Sampled",
					maxExhaustiveTrials, len(phi), wMax)
			}
			for _, k := range sel {
				g.arena = append(g.arena, phi[k])
			}
			g.lens = append(g.lens, w)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// combinations invokes fn with each len(sel)-subset of {0..n-1} in
// lexicographic order, using sel as its working buffer (reused between
// calls).
func combinations(sel []int, n int, fn func([]int) error) error {
	k := len(sel)
	if k > n || k <= 0 {
		return nil
	}
	for i := range sel {
		sel[i] = i
	}
	for {
		if err := fn(sel); err != nil {
			return err
		}
		// advance
		i := k - 1
		for i >= 0 && sel[i] == n-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		sel[i]++
		for j := i + 1; j < k; j++ {
			sel[j] = sel[j-1] + 1
		}
	}
}

func (g *trialGenerator) appendSampled(phi []int, wMax, ns int, rng *rand.Rand) {
	if len(phi) > cap(g.scratch) {
		g.scratch = make([]int, len(phi))
	}
	scratch := g.scratch[:len(phi)]
	for w := 1; w <= wMax; w++ {
		ww := w
		if ww > len(phi) {
			ww = len(phi)
		}
		if ww == 0 {
			continue
		}
		for s := 0; s < ns; s++ {
			copy(scratch, phi)
			// partial Fisher–Yates for a uniform ww-subset
			for i := 0; i < ww; i++ {
				j := i + rng.Intn(len(scratch)-i)
				scratch[i], scratch[j] = scratch[j], scratch[i]
			}
			g.arena = append(g.arena, scratch[:ww]...)
			g.lens = append(g.lens, ww)
		}
	}
}
