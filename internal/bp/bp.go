// Package bp implements the normalized min-sum belief-propagation decoder
// used throughout the paper: flooding and layered schedules, the adaptive
// damping factor α = 1−2⁻ⁱ, early termination on syndrome match, and the
// bit-level oscillation (flip-count) tracking that drives BP-SF candidate
// selection.
//
// A Decoder is a reusable workspace bound to one Tanner graph and one prior
// vector. It is NOT safe for concurrent use; parallel decoding engines give
// each worker its own Decoder (see Clone).
//
// Messages are stored as float32: the LLR dynamic range is tiny (clamped
// priors, α ≤ 1), and halving the message footprint nearly doubles
// throughput on the large detector-error-model graphs where decoding time
// is memory-bound.
package bp

import (
	"math"
	"math/bits"
	"sync/atomic"

	"bpsf/internal/gf2"
	"bpsf/internal/tanner"
)

// Schedule selects the message-passing order.
type Schedule int

const (
	// Flooding updates all variable-to-check messages, then all
	// check-to-variable messages, once per iteration.
	Flooding Schedule = iota
	// Layered sweeps checks sequentially, updating posteriors in place.
	// Serial but often better on codes with symmetric trapping sets
	// (the paper uses it for the J288,12,18K circuit-level experiments).
	Layered
)

func (s Schedule) String() string {
	switch s {
	case Flooding:
		return "flooding"
	case Layered:
		return "layered"
	default:
		return "unknown"
	}
}

// maxLLR caps channel LLRs so that zero-probability mechanisms stay finite.
const maxLLR = 35.0

// alphaTable is the length of a decoder's α table beyond its zero entry.
// From iteration 25 on, float32(1−2⁻ⁱ) rounds to exactly 1, so the last
// entry stands for every later iteration.
const alphaTable = 64

// Config parameterizes a Decoder.
type Config struct {
	// MaxIter is the iteration cap (the paper's BP50/BP100/BP1000...).
	MaxIter int
	// Schedule selects flooding (default) or layered message passing.
	Schedule Schedule
	// Variant selects the check rule: the paper's normalized min-sum
	// (default) or exact sum-product.
	Variant Variant
	// FixedAlpha, when > 0, uses a constant normalization factor instead of
	// the paper's adaptive α = 1−2⁻ⁱ (min-sum only).
	FixedAlpha float64
	// TrackOscillation enables per-bit flip counting (needed by BP-SF's
	// initial attempt; trials leave it off).
	TrackOscillation bool
}

// Result reports the outcome of one decode.
//
// ErrHat, FlipCount and Marginal alias reusable decoder buffers so that
// steady-state decoding performs zero per-shot allocations; they stay valid
// until the next Decode on the same Decoder. Clone/copy them if retained
// longer.
type Result struct {
	// Success is true when the hard decision satisfied the syndrome within
	// MaxIter iterations.
	Success bool
	// Iterations is the number of iterations executed.
	Iterations int
	// ErrHat is the estimated error pattern (hard decision at exit).
	ErrHat gf2.Vec
	// FlipCount[i] is the number of iterations in which bit i's hard
	// decision changed; nil unless Config.TrackOscillation.
	FlipCount []int
	// Marginal[i] is the final posterior LLR of bit i.
	Marginal []float64
}

// Decoder is a reusable min-sum BP workspace.
type Decoder struct {
	g     *tanner.Graph
	cfg   Config
	prior []float32
	// alphas[i] is the normalization factor of iteration i as float32;
	// iterations past the table's end use its last entry (see alphaTable).
	// Read-only after New; clones share it.
	alphas []float32

	c2v      []float32
	marginal []float32
	delta    []float32 // flooding marginal accumulator, zero between iterations
	margOut  []float64 // float64 view for Result.Marginal
	hard     gf2.Vec
	// unsat is s ⊕ H·hard, the checks the hard decision leaves unsatisfied,
	// and nUnsat its weight: decide keeps both current as bits flip.
	unsat   gf2.Vec
	nUnsat  int
	flip    []int
	errOut  gf2.Vec // reusable Result.ErrHat buffer
	flipOut []int   // reusable Result.FlipCount buffer

	// sum-product per-check scratch (lazily allocated)
	spIn, spOut []float64
}

// New builds a decoder for graph g with per-variable error probabilities
// probs (converted to channel LLRs; probabilities are clamped away from 0
// and 0.5 to keep LLRs finite and positive).
func New(g *tanner.Graph, probs []float64, cfg Config) *Decoder {
	if len(probs) != g.N {
		panic("bp: prior length mismatch")
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	d := newWorkspace(g, cfg)
	d.alphas = make([]float32, min(cfg.MaxIter, alphaTable)+1)
	for i := 1; i < len(d.alphas); i++ {
		d.alphas[i] = float32(d.alpha(i))
	}
	d.SetPriors(probs)
	return d
}

// newWorkspace allocates a decoder's per-decode buffers.
func newWorkspace(g *tanner.Graph, cfg Config) *Decoder {
	return &Decoder{
		g:        g,
		cfg:      cfg,
		prior:    make([]float32, g.N),
		c2v:      make([]float32, g.E),
		marginal: make([]float32, g.N),
		delta:    make([]float32, g.N),
		margOut:  make([]float64, g.N),
		hard:     gf2.NewVec(g.N),
		unsat:    gf2.NewVec(g.M),
		flip:     make([]int, g.N),
		errOut:   gf2.NewVec(g.N),
		flipOut:  make([]int, g.N),
	}
}

// SetPriors replaces the channel LLRs from a probability vector.
func (d *Decoder) SetPriors(probs []float64) {
	if len(probs) != d.g.N {
		panic("bp: prior length mismatch")
	}
	for i, p := range probs {
		d.prior[i] = float32(LLRFromProb(p))
	}
}

// LLRFromProb converts an error probability to a channel LLR, clamped to
// ±maxLLR.
func LLRFromProb(p float64) float64 {
	if p <= 0 {
		return maxLLR
	}
	if p >= 1 {
		return -maxLLR
	}
	l := math.Log((1 - p) / p)
	if l > maxLLR {
		return maxLLR
	}
	if l < -maxLLR {
		return -maxLLR
	}
	return l
}

// Graph returns the decoder's Tanner graph.
func (d *Decoder) Graph() *tanner.Graph { return d.g }

// Config returns the decoder's configuration.
func (d *Decoder) Config() Config { return d.cfg }

// Clone returns an independent decoder with the same graph, priors and
// config (fresh message buffers). Used to hand one decoder to each parallel
// worker.
func (d *Decoder) Clone() *Decoder {
	nd := newWorkspace(d.g, d.cfg)
	nd.alphas = d.alphas
	copy(nd.prior, d.prior)
	return nd
}

// minSumCheck is the decoder's hot loop: the normalized min-sum update of
// one check, whose edges go to variables vs and carry c2v messages cs.
// Pass 1 finds the two smallest |v2c| and the sign parity; pass 2 writes
// base·min1 (base·min2 on the argmin edge) with the extrinsic sign and
// adds each message's change to acc. A check of degree < 2 has an
// infinite minimum, clamped to maxLLR.
//
// It is a small leaf function so that the minima, argmin and sign parity
// stay in registers and cs is indexed without bounds checks. acc may be
// marg itself (layered): each edge's sign is read before its own
// variable's update, and a check touches each variable once, so the
// result is the same as with a separate accumulator.
func minSumCheck(vs []int32, cs []float32, marg, acc []float32, base float32) {
	cs = cs[:len(vs)]
	min1 := float32(math.Inf(1))
	min2 := min1
	argmin := -1
	signs := false
	for k, v := range vs {
		m := marg[v] - cs[k]
		if m < 0 {
			signs = !signs
			m = -m
		}
		if m < min1 {
			min2, min1, argmin = min1, m, k
		} else if m < min2 {
			min2 = m
		}
	}
	out1, out2 := base*clampInf(min1), base*clampInf(min2)
	for k, v := range vs {
		old := cs[k]
		out := out1
		if k == argmin {
			out = out2
		}
		if marg[v]-old < 0 != signs {
			out = -out
		}
		cs[k] = out
		acc[v] += out - old
	}
}

// clampInf maps the +Inf minimum of a degree-0/1 check to maxLLR.
func clampInf(m float32) float32 {
	if math.IsInf(float64(m), 1) {
		return maxLLR
	}
	return m
}

// Decode runs BP on syndrome s.
func (d *Decoder) Decode(s gf2.Vec) Result { return d.DecodeStop(s, nil) }

// Bound ends a decode early for a caller that runs several decodes in one
// virtual time, such as BP-SF's trial lanes. Iteration i of the decode is
// step Base+i, and it runs only while the pair (Base+i, Key), packed as
// (Base+i)<<32 | Key, is below *Best, where the caller keeps the least
// pair at which any of its decodes succeeded. A caller builds one Bound
// per lane and sets Base and Key before each decode.
type Bound struct {
	Best      *atomic.Uint64
	Base, Key int
}

// Allows reports whether iteration i of the decode may run: whether its
// pair is below the best one so far. It costs one atomic load.
func (b *Bound) Allows(i int) bool {
	return uint64(b.Base+i)<<32|uint64(b.Key) < b.Best.Load()
}

// DecodeStop runs BP on syndrome s, ending early (with Success=false)
// before the first iteration that b does not allow. b may be nil.
func (d *Decoder) DecodeStop(s gf2.Vec, b *Bound) Result {
	if s.Len() != d.g.M {
		panic("bp: syndrome length mismatch")
	}
	d.reset(s)
	// A layered sweep applies each check's message changes to the
	// marginals at once; a flooding pass accumulates them in delta and
	// commits them after the whole pass, so that no check sees another's
	// update within the iteration.
	layered := d.cfg.Schedule == Layered
	acc := d.delta
	if layered {
		acc = d.marginal
	}
	var iters int
	success := false
	for iters = 1; iters <= d.cfg.MaxIter; iters++ {
		if b != nil && !b.Allows(iters) {
			iters-- // this iteration never ran
			break
		}
		if d.cfg.Variant == SumProduct {
			d.sumProductPass(s, acc)
		} else {
			d.minSumPass(s, d.alphas[min(iters, len(d.alphas)-1)], acc)
		}
		if !layered {
			d.commitDelta()
		}
		if d.decide() {
			success = true
			break
		}
	}
	return d.result(min(iters, d.cfg.MaxIter), success)
}

// result reports the decode that just ended, in the decoder's reusable
// Result buffers.
func (d *Decoder) result(iters int, success bool) Result {
	for i, m := range d.marginal {
		d.margOut[i] = float64(m)
	}
	d.errOut.CopyFrom(d.hard)
	res := Result{
		Success:    success,
		Iterations: iters,
		ErrHat:     d.errOut,
		Marginal:   d.margOut,
	}
	if d.cfg.TrackOscillation {
		copy(d.flipOut, d.flip)
		res.FlipCount = d.flipOut
	}
	return res
}

func (d *Decoder) reset(s gf2.Vec) {
	for i := range d.c2v {
		d.c2v[i] = 0
	}
	copy(d.marginal, d.prior)
	d.hard.Zero()
	d.unsat.CopyFrom(s)
	d.nUnsat = s.Weight()
	for i := range d.flip {
		d.flip[i] = 0
	}
}

// alpha returns the normalization factor for iteration i (1-based): the
// paper's adaptive damping α = 1−2⁻ⁱ, or the fixed override.
func (d *Decoder) alpha(i int) float64 {
	if d.cfg.FixedAlpha > 0 {
		return d.cfg.FixedAlpha
	}
	return 1 - math.Pow(2, -float64(i))
}

// minSumPass runs the min-sum check update over every check, adding each
// message change to acc (the marginals themselves for a layered sweep,
// delta for a flooding pass). The extrinsic inputs are v2c = marginal −
// c2v: the marginal holds prior + Σ c2v.
func (d *Decoder) minSumPass(s gf2.Vec, alpha float32, acc []float32) {
	g := d.g
	ptr, vars, c2v, marg := g.CheckPtr, g.EdgeVar, d.c2v, d.marginal
	for c := 0; c < g.M; c++ {
		lo, hi := ptr[c], ptr[c+1]
		base := alpha
		if s.Get(c) {
			base = -base
		}
		minSumCheck(vars[lo:hi], c2v[lo:hi], marg, acc, base)
	}
}

// commitDelta ends a flooding iteration: it adds the accumulated changes
// to the marginals and leaves delta zero for the next iteration.
func (d *Decoder) commitDelta() {
	marg, delta := d.marginal, d.delta[:len(d.marginal)]
	for v, dv := range delta {
		marg[v] += dv
		delta[v] = 0
	}
}

// decide recomputes the hard decision (bit v set iff marginal[v] ≤ 0) one
// 64-bit word at a time. Each bit that flipped since the last iteration
// toggles its checks in the unsatisfied set (and, with
// TrackOscillation, counts as a flip), so the syndrome test costs work
// only where the decision moved. Reports whether H·hard == s.
func (d *Decoder) decide() bool {
	marg := d.marginal
	words := d.hard.Words()
	for w := range words {
		lo := w * 64
		var word uint64
		for i, m := range marg[lo:min(lo+64, len(marg))] {
			if m <= 0 {
				word |= 1 << uint(i)
			}
		}
		diff := word ^ words[w]
		if diff == 0 {
			continue
		}
		words[w] = word
		for ; diff != 0; diff &= diff - 1 {
			d.flipVar(lo + bits.TrailingZeros64(diff))
		}
	}
	return d.nUnsat == 0
}

// flipVar records that variable v's hard decision flipped.
func (d *Decoder) flipVar(v int) {
	if d.cfg.TrackOscillation {
		d.flip[v]++
	}
	g := d.g
	for _, e := range g.VarEdges[g.VarPtr[v]:g.VarPtr[v+1]] {
		c := int(g.EdgeCheck[e])
		d.unsat.Flip(c)
		if d.unsat.Get(c) {
			d.nUnsat++
		} else {
			d.nUnsat--
		}
	}
}
