package bp

import (
	"math"

	"bpsf/internal/gf2"
	"bpsf/internal/tanner"
)

// refDecoder is the straightforward BP decoder the production kernel must
// reproduce bit for bit: both check passes inlined into one loop per
// iteration, α from math.Pow every iteration, a per-bit hard decision,
// flip counting against a saved previous hard decision, and a full
// syndrome recomputation over every edge after each iteration. It exists
// only as the differential reference (TestKernelMatchesReference).
type refDecoder struct {
	g     *tanner.Graph
	cfg   Config
	prior []float32

	c2v, marginal, delta []float32
	hard, prevHard       gf2.Vec
	flip                 []int
	spIn, spOut          []float64
}

// newReference builds a reference decoder with d's graph, config and
// priors.
func newReference(d *Decoder) *refDecoder {
	g := d.g
	return &refDecoder{
		g:        g,
		cfg:      d.cfg,
		prior:    append([]float32(nil), d.prior...),
		c2v:      make([]float32, g.E),
		marginal: make([]float32, g.N),
		delta:    make([]float32, g.N),
		hard:     gf2.NewVec(g.N),
		prevHard: gf2.NewVec(g.N),
		flip:     make([]int, g.N),
	}
}

// decode is Decoder.Decode on the reference kernel. The Result owns fresh
// buffers.
func (d *refDecoder) decode(s gf2.Vec) Result {
	for i := range d.c2v {
		d.c2v[i] = 0
	}
	copy(d.marginal, d.prior)
	d.hard.Zero()
	d.prevHard.Zero()
	for i := range d.flip {
		d.flip[i] = 0
	}
	var iters int
	success := false
	for iters = 1; iters <= d.cfg.MaxIter; iters++ {
		alpha := float32(d.alpha(iters))
		var satisfied bool
		switch {
		case d.cfg.Variant == SumProduct && d.cfg.Schedule == Layered:
			satisfied = d.layeredIterationSP(s)
		case d.cfg.Variant == SumProduct:
			satisfied = d.floodIterationSP(s)
		case d.cfg.Schedule == Layered:
			satisfied = d.layeredIteration(s, alpha)
		default:
			satisfied = d.floodIteration(s, alpha)
		}
		if d.cfg.TrackOscillation {
			for v := 0; v < d.g.N; v++ {
				if d.hard.Get(v) != d.prevHard.Get(v) {
					d.flip[v]++
				}
			}
			d.prevHard.CopyFrom(d.hard)
		}
		if satisfied {
			success = true
			break
		}
	}
	if iters > d.cfg.MaxIter {
		iters = d.cfg.MaxIter
	}
	res := Result{
		Success:    success,
		Iterations: iters,
		ErrHat:     d.hard.Clone(),
		Marginal:   make([]float64, d.g.N),
	}
	for i, m := range d.marginal {
		res.Marginal[i] = float64(m)
	}
	if d.cfg.TrackOscillation {
		res.FlipCount = append([]int(nil), d.flip...)
	}
	return res
}

func (d *refDecoder) alpha(i int) float64 {
	if d.cfg.FixedAlpha > 0 {
		return d.cfg.FixedAlpha
	}
	return 1 - math.Pow(2, -float64(i))
}

func (d *refDecoder) floodIteration(s gf2.Vec, alpha float32) bool {
	g := d.g
	c2v := d.c2v
	marg := d.marginal
	vars := g.EdgeVar
	delta := d.delta
	for v := range delta {
		delta[v] = 0
	}
	for c := 0; c < g.M; c++ {
		lo, hi := g.CheckPtr[c], g.CheckPtr[c+1]
		min1 := float32(math.Inf(1))
		min2 := min1
		argmin := -1
		signs := false
		for e := lo; e < hi; e++ {
			m := marg[vars[e]] - c2v[e]
			if m < 0 {
				signs = !signs
				m = -m
			}
			if m < min1 {
				min2, min1, argmin = min1, m, e
			} else if m < min2 {
				min2 = m
			}
		}
		base := alpha
		if s.Get(c) {
			base = -base
		}
		if math.IsInf(float64(min2), 1) {
			min2 = maxLLR
		}
		if math.IsInf(float64(min1), 1) {
			min1 = maxLLR
		}
		for e := lo; e < hi; e++ {
			v := vars[e]
			old := c2v[e]
			mag := min1
			if e == argmin {
				mag = min2
			}
			out := base * mag
			if marg[v]-old < 0 != signs {
				out = -out
			}
			c2v[e] = out
			delta[v] += out - old
		}
	}
	for v := 0; v < g.N; v++ {
		marg[v] += delta[v]
		d.hard.Set(v, marg[v] <= 0)
	}
	return d.syndromeMatches(s)
}

func (d *refDecoder) layeredIteration(s gf2.Vec, alpha float32) bool {
	g := d.g
	c2v := d.c2v
	marg := d.marginal
	vars := g.EdgeVar
	for c := 0; c < g.M; c++ {
		lo, hi := g.CheckPtr[c], g.CheckPtr[c+1]
		min1 := float32(math.Inf(1))
		min2 := min1
		argmin := -1
		signs := false
		for e := lo; e < hi; e++ {
			m := marg[vars[e]] - c2v[e]
			if m < 0 {
				signs = !signs
				m = -m
			}
			if m < min1 {
				min2, min1, argmin = min1, m, e
			} else if m < min2 {
				min2 = m
			}
		}
		base := alpha
		if s.Get(c) {
			base = -base
		}
		if math.IsInf(float64(min2), 1) {
			min2 = maxLLR
		}
		if math.IsInf(float64(min1), 1) {
			min1 = maxLLR
		}
		for e := lo; e < hi; e++ {
			v := vars[e]
			old := c2v[e]
			mag := min1
			if e == argmin {
				mag = min2
			}
			out := base * mag
			if marg[v]-old < 0 != signs {
				out = -out
			}
			marg[v] += out - old
			c2v[e] = out
		}
	}
	for v := 0; v < g.N; v++ {
		d.hard.Set(v, marg[v] <= 0)
	}
	return d.syndromeMatches(s)
}

func (d *refDecoder) spScratch() {
	if d.spIn != nil {
		return
	}
	maxDeg := 0
	for c := 0; c < d.g.M; c++ {
		maxDeg = max(maxDeg, d.g.CheckDegree(c))
	}
	d.spIn = make([]float64, maxDeg)
	d.spOut = make([]float64, maxDeg)
}

func (d *refDecoder) floodIterationSP(s gf2.Vec) bool {
	g := d.g
	c2v := d.c2v
	marg := d.marginal
	vars := g.EdgeVar
	delta := d.delta
	for v := range delta {
		delta[v] = 0
	}
	d.spScratch()
	for c := 0; c < g.M; c++ {
		lo, hi := g.CheckPtr[c], g.CheckPtr[c+1]
		deg := hi - lo
		in := d.spIn[:deg]
		out := d.spOut[:deg]
		for k := 0; k < deg; k++ {
			e := lo + k
			in[k] = float64(marg[vars[e]] - c2v[e])
		}
		base := 1.0
		if s.Get(c) {
			base = -1
		}
		spCheckUpdate(in, out, base)
		for k := 0; k < deg; k++ {
			e := lo + k
			v := vars[e]
			nw := float32(out[k])
			delta[v] += nw - c2v[e]
			c2v[e] = nw
		}
	}
	for v := 0; v < g.N; v++ {
		marg[v] += delta[v]
		d.hard.Set(v, marg[v] <= 0)
	}
	return d.syndromeMatches(s)
}

func (d *refDecoder) layeredIterationSP(s gf2.Vec) bool {
	g := d.g
	c2v := d.c2v
	marg := d.marginal
	vars := g.EdgeVar
	d.spScratch()
	for c := 0; c < g.M; c++ {
		lo, hi := g.CheckPtr[c], g.CheckPtr[c+1]
		deg := hi - lo
		in := d.spIn[:deg]
		out := d.spOut[:deg]
		for k := 0; k < deg; k++ {
			e := lo + k
			in[k] = float64(marg[vars[e]] - c2v[e])
		}
		base := 1.0
		if s.Get(c) {
			base = -1
		}
		spCheckUpdate(in, out, base)
		for k := 0; k < deg; k++ {
			e := lo + k
			v := vars[e]
			nw := float32(out[k])
			marg[v] += nw - c2v[e]
			c2v[e] = nw
		}
	}
	for v := 0; v < g.N; v++ {
		d.hard.Set(v, marg[v] <= 0)
	}
	return d.syndromeMatches(s)
}

// syndromeMatches reports whether H·hard == s, recomputed over every edge.
func (d *refDecoder) syndromeMatches(s gf2.Vec) bool {
	g := d.g
	for c := 0; c < g.M; c++ {
		lo, hi := g.CheckPtr[c], g.CheckPtr[c+1]
		parity := false
		for e := lo; e < hi; e++ {
			if d.hard.Get(int(g.EdgeVar[e])) {
				parity = !parity
			}
		}
		if parity != s.Get(c) {
			return false
		}
	}
	return true
}
