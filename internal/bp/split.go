package bp

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync/atomic"

	"bpsf/internal/gf2"
)

// Split divides the iterations of a flooding min-sum Decoder into parts
// that run concurrently and returns the Result of Decoder.Decode bit for
// bit. A split iteration is two phases, each over all the parts:
//
//   - the check phase: each part runs the min-sum update of a contiguous,
//     edge-balanced range of checks, reading the marginals and the old
//     messages and writing the new messages into a second buffer (the two
//     buffers swap every split iteration);
//   - the variable phase: each part owns a range of whole 64-bit words of
//     the hard decision. For each of its variables it sums new − old over
//     the variable's edges, adds the sum to the marginal, rebuilds the
//     hard-decision word and counts flips, and toggles the checks of
//     flipped bits in a check bit-vector of its own.
//
// The matrix's column side lists a variable's edges in ascending row
// (check) order, which is the order in which the fused pass (minSumPass)
// accumulates the same float32 differences into delta, so the marginals
// agree to the bit. The caller then merges: it XORs the parts' vectors
// into the decoder's unsatisfied checks and counts them. A split
// iteration thus leaves the decoder as a fused one does, and the two
// kinds can alternate within a decode.
//
// Helper goroutines take parts alongside the caller. The caller opens each
// phase and claims its parts one at a time, as do the helpers; it then
// waits only for parts a helper has claimed and not yet finished. A part
// writes the same bits whoever runs it. An iteration is split only while
// a helper is spinning on a processor, ready to take a part; otherwise the
// caller runs it fused. So a decoder that shares the machine with other
// busy goroutines (the shards of a Monte-Carlo run), or runs on one
// processor, decodes at about the fused pass's speed rather than running
// every part alone or waiting on a helper that has no processor.
//
// The parts share the Decoder's buffers: a Split and its Decoder must not
// decode at the same time, and neither is safe for concurrent use. With one
// part, or for a layered or sum-product Decoder, Decode is Decoder.Decode.
type Split struct {
	d     *Decoder
	parts []splitPart
	// help is one helper's loop; built once so that starting a helper
	// allocates nothing
	help  func()
	live  atomic.Int32 // helpers started and not yet returned
	ready atomic.Int32 // helpers spinning for parts on a processor
	s     gf2.Vec      // the syndrome being decoded
	c2v   []float32    // the second message buffer

	// varPhase is the open phase's kind, set before it is opened in work
	varPhase bool
	alpha    float32 // the check phase's α
	// work holds the open phase's sequence number above workSeqShift, the
	// workClosed bit between decodes, and the next unclaimed part below it
	// (len(parts) while the decode runs between phases or fused)
	work atomic.Uint64
	done atomic.Int32 // parts of the open phase finished
}

const (
	workClosed   = 1 << 16
	workSeqShift = 17
	workPartMask = workClosed - 1
)

// splitPart is one part's share of a split iteration.
type splitPart struct {
	checkLo, checkHi int // checks [checkLo, checkHi)
	wordLo, wordHi   int // hard-decision words [wordLo, wordHi)
	// toggles gathers, one bit per check, the checks of the part's
	// variables that flipped in this iteration; the merge clears it
	toggles []uint64
}

// minPartEdges is the fewest Tanner edges a part gets. Opening a phase
// costs about a microsecond, so a part must be large for the split to
// pay: on a 2-vCPU host, two parts decoded an 8,224-edge DEM (rsurf5, 8
// rounds) no faster than the fused pass and a 24,267-edge one (bb72, 2
// rounds) a quarter faster. Code-capacity graphs (hundreds of edges)
// always decode fused.
const minPartEdges = 1 << 13

// NewSplit prepares d's decodes to run in up to the given number of parts,
// as many as give each part at least minPartEdges edges. A layered or
// sum-product d, or parts < 2, gets one part, which decodes fused and
// holds no second message buffer.
func NewSplit(d *Decoder, parts int) *Split {
	if parts = min(parts, d.h.NNZ()/minPartEdges); parts < 2 {
		return &Split{d: d, parts: make([]splitPart, 1)}
	}
	return newSplit(d, parts)
}

// newSplit is NewSplit without the floor on a part's edges.
func newSplit(d *Decoder, parts int) *Split {
	twoPhase := d.cfg.Schedule == Flooding && d.cfg.Variant == MinSum
	if !twoPhase {
		parts = 1
	}
	parts = max(parts, 1)
	sp := &Split{d: d, parts: make([]splitPart, parts)}
	sp.work.Store(workClosed)
	if !twoPhase {
		return sp
	}
	h := d.h
	rowPtr, _ := h.CSR()
	colPtr, _, _ := h.CSC()
	sp.c2v = make([]float32, h.NNZ())
	// each part's toggles start on their own cache line
	words := len(d.unsat.Words())
	stride := (words + 7) &^ 7
	backing := make([]uint64, parts*stride)
	nWords := len(d.hard.Words())
	// part p starts where p/parts of the edges lie before it: at the first
	// check, and the first whole word of variables, past that share
	cut := func(p int) (check, word int) {
		share := p * h.NNZ() / parts
		check = sort.Search(h.Rows(), func(c int) bool { return rowPtr[c] >= share })
		word = sort.Search(nWords, func(w int) bool { return colPtr[w*64] >= share })
		return check, word
	}
	for p := range sp.parts {
		pt := &sp.parts[p]
		pt.checkLo, pt.wordLo = cut(p)
		pt.checkHi, pt.wordHi = cut(p + 1)
		if p == parts-1 {
			pt.checkHi, pt.wordHi = h.Rows(), nWords
		}
		pt.toggles = backing[p*stride : p*stride+words : p*stride+words]
	}
	sp.help = func() {
		defer sp.live.Add(-1)
		sp.assist()
	}
	return sp
}

// Parts returns the number of parts a split iteration runs in.
func (sp *Split) Parts() int { return len(sp.parts) }

// Decode runs BP on syndrome s. It starts helper goroutines, one per part
// past the first less those still live from an earlier decode. A helper
// returns once it finds no decode open; one that gets a processor only
// after its decode has returned joins the next decode or returns.
func (sp *Split) Decode(s gf2.Vec) Result {
	if len(sp.parts) == 1 {
		return sp.d.Decode(s)
	}
	return sp.decode(s, false)
}

// decode runs BP on s, splitting an iteration whenever a helper is ready
// for a part, or always (even with one part) if always is set.
func (sp *Split) decode(s gf2.Vec, always bool) Result {
	d := sp.d
	if s.Len() != d.h.Rows() {
		panic("bp: syndrome length mismatch")
	}
	d.reset(s)
	sp.s = s
	// open the decode with every part of a phase taken: helpers wait
	sp.open(uint64(len(sp.parts)))
	for n := sp.live.Load(); n < int32(len(sp.parts)-1); n++ {
		sp.live.Add(1)
		go sp.help()
	}
	iters, success := 1, false
	for ; iters <= d.cfg.MaxIter; iters++ {
		alpha := d.alphas[min(iters, len(d.alphas)-1)]
		if always || sp.ready.Load() > 0 {
			sp.alpha = alpha
			sp.phase(false)
			sp.phase(true)
			d.c2v, sp.c2v = sp.c2v, d.c2v
			sp.merge()
		} else {
			d.minSumPass(s, alpha, d.delta)
			d.commitDelta()
			d.decide()
		}
		if d.nUnsat == 0 {
			success = true
			break
		}
	}
	sp.work.Store(sp.work.Load()&^workPartMask | workClosed)
	return d.result(min(iters, d.cfg.MaxIter), success)
}

// phase opens the next phase, runs every part no helper claims first, and
// returns once all of them have finished.
func (sp *Split) phase(varPhase bool) {
	sp.varPhase = varPhase
	sp.open(0)
	for w := sp.work.Load(); w&workPartMask < uint64(len(sp.parts)); w = sp.work.Load() {
		sp.claim(w)
	}
	for spins := 0; sp.done.Load() < int32(len(sp.parts)); spins++ {
		if spins >= spinPolls {
			runtime.Gosched()
		}
	}
	sp.done.Store(0)
}

// open moves work to a new sequence number with part next up for claims.
func (sp *Split) open(next uint64) {
	sp.work.Store((sp.work.Load()>>workSeqShift+1)<<workSeqShift | next)
}

// assist runs parts for the caller until the decode is closed, counting
// itself ready except while it yields its processor. It yields after
// every part it runs, as well as after spinPolls idle polls: on an idle
// machine that costs a trip through the scheduler, and on a busy one it
// hands the processor back to the goroutines the helper displaced, so
// the caller decodes fused meanwhile instead of the machine running two
// split parts in place of two fused decodes.
func (sp *Split) assist() {
	sp.ready.Add(1)
	for spins := 0; ; spins++ {
		w := sp.work.Load()
		if w&workClosed != 0 {
			break
		}
		ran := sp.claim(w)
		if ran || spins >= spinPolls {
			sp.ready.Add(-1)
			runtime.Gosched()
			sp.ready.Add(1)
			spins = 0
		}
	}
	sp.ready.Add(-1)
}

// claim runs the part that work state w offers, if it still offers it, and
// reports whether it ran one. The phase's inputs are read only once the
// part is won: until it is done the caller opens no other phase.
func (sp *Split) claim(w uint64) bool {
	p := int(w & workPartMask)
	if w&workClosed != 0 || p >= len(sp.parts) || !sp.work.CompareAndSwap(w, w+1) {
		return false
	}
	if pt := &sp.parts[p]; sp.varPhase {
		sp.updateVars(pt)
	} else {
		sp.checkPhase(pt)
	}
	sp.done.Add(1)
	return true
}

// merge ends a split iteration: it XORs the parts' toggles into the
// decoder's unsatisfied checks, clears them, and recounts the checks.
func (sp *Split) merge() {
	d := sp.d
	unsat := d.unsat.Words()
	n := 0
	for w, x := range unsat {
		for p := range sp.parts {
			t := sp.parts[p].toggles
			x ^= t[w]
			t[w] = 0
		}
		unsat[w] = x
		n += bits.OnesCount64(x)
	}
	d.nUnsat = n
}

// checkPhase writes the new messages of pt's checks, updated from the
// decoder's, into the second buffer.
func (sp *Split) checkPhase(pt *splitPart) {
	ptr, vars := sp.d.h.CSR()
	marg := sp.d.marginal
	old, next := sp.d.c2v, sp.c2v
	for c := pt.checkLo; c < pt.checkHi; c++ {
		lo, hi := ptr[c], ptr[c+1]
		base := sp.alpha
		if sp.s.Get(c) {
			base = -base
		}
		minSumCheckTo(vars[lo:hi], old[lo:hi], next[lo:hi], marg, base)
	}
}

// minSumCheckTo is minSumCheck writing the check's new messages to out
// instead of over cs, and accumulating nothing: the same float32
// operations, so out equals what minSumCheck leaves in cs.
func minSumCheckTo(vs []int32, cs, out, marg []float32, base float32) {
	cs, out = cs[:len(vs)], out[:len(vs)]
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
		o := out1
		if k == argmin {
			o = out2
		}
		if marg[v]-cs[k] < 0 != signs {
			o = -o
		}
		out[k] = o
	}
}

// updateVars updates the marginals, hard decision and flip counts of pt's
// variables from the change between the decoder's messages (old) and the
// second buffer's (new), and toggles the checks of the bits that flipped
// in pt's vector. The sum over a variable's edges runs in check order from
// +0, as delta accumulates it in the fused pass.
func (sp *Split) updateVars(pt *splitPart) {
	d := sp.d
	ptr, checks, edges := d.h.CSC()
	n := d.h.Cols()
	old, next := d.c2v, sp.c2v
	marg, words, toggles := d.marginal, d.hard.Words(), pt.toggles
	for w := pt.wordLo; w < pt.wordHi; w++ {
		lo := w * 64
		var word uint64
		for i := range min(64, n-lo) {
			v := lo + i
			var acc float32
			for _, e := range edges[ptr[v]:ptr[v+1]] {
				acc += next[e] - old[e]
			}
			m := marg[v] + acc
			marg[v] = m
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
			v := lo + bits.TrailingZeros64(diff)
			if d.cfg.TrackOscillation {
				d.flip[v]++
			}
			for _, c := range checks[ptr[v]:ptr[v+1]] {
				toggles[c>>6] ^= 1 << (uint(c) & 63)
			}
		}
	}
}

// spinPolls is how many times a goroutine waiting on a phase polls
// before it starts yielding its processor between polls. Between phases a
// goroutine waits for the other parts to finish and for the caller's
// merge, usually less time than the polls take; past them, yielding lets
// the goroutines it waits for run even when there are fewer processors
// than goroutines.
const spinPolls = 1 << 10
