package bpsf

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// selectCandidatesRef is the candidate selection as it was before the
// bounded heap: a stable sort of every index, cut to the first phi. It is
// the reference TestSelectCandidatesMatchesReference holds selectInto to.
func selectCandidatesRef(flipCount []int, marginal []float64, phi int) []int {
	n := len(flipCount)
	if phi > n {
		phi = n
	}
	if phi <= 0 {
		return nil
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	flip := flipCount
	allZero := true
	for _, f := range flipCount {
		if f != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		flip = nil // sort by |marginal| only
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if flip != nil {
			if fa, fb := flip[ia], flip[ib]; fa != fb {
				return fa > fb
			}
		}
		return math.Abs(marginal[ia]) < math.Abs(marginal[ib])
	})
	return idx[:phi]
}

// TestSelectCandidatesMatchesReference compares the bounded selection with
// the stable-sort reference on random inputs dense in ties: flip counts
// from {0..3} (all zero in every fourth case), marginals from a handful of
// values whose magnitudes collide across signs, and phi from 0 past n.
// One selector is reused throughout, as a Decoder reuses its own.
func TestSelectCandidatesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	margs := []float64{0, 0.5, -0.5, 1, -1, 2.5, -2.5, math.Inf(1)}
	var sel candidateSelector
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(200)
		flips := make([]int, n)
		marg := make([]float64, n)
		for i := range flips {
			if trial%4 != 0 {
				flips[i] = rng.Intn(4)
			}
			marg[i] = margs[rng.Intn(len(margs))]
		}
		phi := rng.Intn(n + 3)
		want := selectCandidatesRef(flips, marg, phi)
		if got := sel.selectInto(flips, marg, phi); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d phi=%d): got %v, want %v", trial, n, phi, got, want)
		}
	}
}

// BenchmarkSelectCandidates selects |Φ| = 50 of 7,869 bits — the bb144
// DEM's mechanism count — from flip counts that are mostly zero, as after
// an initial BP that oscillated on a few bits. The Ref variant runs the
// stable-sort reference on the same input.
func BenchmarkSelectCandidates(b *testing.B) {
	flips, marg := selectionInput(7869)
	var sel candidateSelector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sel.selectInto(flips, marg, 50)
	}
}

func BenchmarkSelectCandidatesRef(b *testing.B) {
	flips, marg := selectionInput(7869)
	for i := 0; i < b.N; i++ {
		selectCandidatesRef(flips, marg, 50)
	}
}

func selectionInput(n int) ([]int, []float64) {
	rng := rand.New(rand.NewSource(2))
	flips, marg := make([]int, n), make([]float64, n)
	for i := range flips {
		if rng.Intn(20) == 0 {
			flips[i] = 1 + rng.Intn(10)
		}
		marg[i] = rng.NormFloat64() * 5
	}
	return flips, marg
}
