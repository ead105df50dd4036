// Package bpsf implements the paper's contribution: BP-SF, belief
// propagation with oscillation-guided speculative syndrome-flip
// post-processing (Algorithm 1).
//
// When the initial BP attempt fails, the decoder selects the |Φ| most
// frequently oscillating bits, generates trial vectors t over Φ, flips each
// trial into the syndrome domain (s' = s ⊕ tHᵀ), decodes every s' with
// short-depth BP — serially or across parallel workers — and returns the
// first success with the flipped bits restored (ê ⊕ t), which by linearity
// satisfies the original syndrome.
package bpsf

import "math"

// SelectCandidates returns the indices of the phi most frequently flipped
// bits (the oscillation set Φ of the paper's §III-B).
//
// Ties are broken toward the smaller posterior |LLR| (less reliable bit),
// then the smaller index, making selection deterministic. If every flip
// count is zero (BP failed without oscillating), the least reliable bits by
// |marginal| are chosen instead so that post-processing still has targets.
func SelectCandidates(flipCount []int, marginal []float64, phi int) []int {
	var sel candidateSelector
	out := sel.selectInto(flipCount, marginal, phi)
	if out == nil {
		return nil
	}
	return append([]int(nil), out...)
}

// candidateSelector is the reusable-scratch implementation behind
// SelectCandidates: a Decoder owns one so that candidate selection in the
// decode hot path is allocation-free after warm-up.
type candidateSelector struct {
	out []int // Φ output buffer (aliases Result.Candidates)
}

// selectInto returns the Φ set in a buffer reused across calls (valid until
// the next call). It keeps the best phi bits seen so far in a bounded heap
// whose root is the worst of them, so most bits cost one comparison, and
// sorts the survivors at the end: O(n log phi), not a full sort.
func (c *candidateSelector) selectInto(flipCount []int, marginal []float64, phi int) []int {
	n := len(flipCount)
	if phi > n {
		phi = n
	}
	if phi <= 0 {
		return nil
	}
	rk := ranking{flipCount, marginal}
	h := c.out[:0]
	for i := 0; i < n; i++ {
		switch {
		case len(h) < phi:
			h = append(h, i)
			for j := len(h) - 1; j > 0 && rk.before(h[(j-1)/2], h[j]); j = (j - 1) / 2 {
				h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
			}
		case rk.before(i, h[0]):
			h[0] = i
			rk.siftDown(h, 0)
		}
	}
	// heapsort: move the worst survivor to the back until the heap is empty
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		rk.siftDown(h[:end], 0)
	}
	c.out = h
	return h
}

// ranking is the total order of Φ candidates: flip count descending, then
// |marginal| ascending (the less reliable bit first), then index ascending.
// When every flip count is zero the first key ties throughout and
// |marginal| alone decides.
type ranking struct {
	flip []int
	marg []float64
}

// before reports whether bit a ranks ahead of bit b.
func (r ranking) before(a, b int) bool {
	if fa, fb := r.flip[a], r.flip[b]; fa != fb {
		return fa > fb
	}
	ma, mb := math.Abs(r.marg[a]), math.Abs(r.marg[b])
	if ma < mb {
		return true
	}
	if mb < ma {
		return false
	}
	return a < b
}

// siftDown restores the heap property (every parent ranks after its
// children, so the root is the worst member) below position i.
func (r ranking) siftDown(h []int, i int) {
	for {
		worst, l := i, 2*i+1
		if l < len(h) && r.before(h[worst], h[l]) {
			worst = l
		}
		if l+1 < len(h) && r.before(h[worst], h[l+1]) {
			worst = l + 1
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// PrecisionRecall computes the paper's Fig 3 metrics: the fraction of
// candidate bits that are true errors (precision) and the fraction of true
// errors covered by the candidates (recall). trueSupport must be the sorted
// support of the injected error.
func PrecisionRecall(candidates []int, trueSupport []int) (precision, recall float64) {
	if len(candidates) == 0 || len(trueSupport) == 0 {
		return 0, 0
	}
	inTrue := make(map[int]bool, len(trueSupport))
	for _, i := range trueSupport {
		inTrue[i] = true
	}
	hits := 0
	for _, c := range candidates {
		if inTrue[c] {
			hits++
		}
	}
	return float64(hits) / float64(len(candidates)), float64(hits) / float64(len(trueSupport))
}
