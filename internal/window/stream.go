package window

import (
	"fmt"
	"math/bits"
	"time"

	"bpsf/internal/decoding"
	"bpsf/internal/gf2"
)

// Commit is one window's incremental output: the mechanisms committed when
// the window decoded, covering rounds [FirstRound, EndRound).
type Commit struct {
	// Window is the window index (position in Decoder.Spans).
	Window int
	// FirstRound/EndRound delimit the committed rounds.
	FirstRound, EndRound int
	// Mechs are the committed global mechanism indices, ascending. They
	// alias a buffer of the window, valid until that window decodes again:
	// every commit of one stream stays valid until the stream is Reset or
	// another stream (or Decode) on the same Decoder reaches the window.
	Mechs []int
	// Success reports whether the window's inner decode satisfied its
	// sub-syndrome.
	Success bool
	// Iterations is the inner decode's serial iteration count; Time its
	// wall-clock duration.
	Iterations int
	Time       time.Duration
}

// Stream is one in-progress round-by-round decode. Rounds are pushed in
// order; whenever enough rounds have arrived to complete a window, the
// window decodes immediately and its committed correction is returned —
// the per-round work is bounded by the window size, never by the stream
// length. A Stream borrows its Decoder's warm per-window inner decoders,
// so use one stream (or Decode call) at a time per Decoder.
type Stream struct {
	d        *Decoder
	residual gf2.Vec
	errHat   gf2.Vec

	nextRound  int
	nextWindow int
	allOK      bool

	iters, initIters     int
	postUsed             bool
	decodeTime, postTime time.Duration

	commitBuf []Commit
}

// NewStream starts a fresh stream over the decoder's full round layout.
func (d *Decoder) NewStream() *Stream {
	s := &Stream{
		d:        d,
		residual: gf2.NewVec(d.h.Rows()),
		errHat:   gf2.NewVec(d.h.Cols()),
	}
	s.Reset()
	return s
}

// Reset rewinds the stream to round 0, clearing the residual syndrome and
// the accumulated correction (buffers are reused).
func (s *Stream) Reset() {
	s.residual.Zero()
	s.errHat.Zero()
	s.nextRound = 0
	s.nextWindow = 0
	s.allOK = true
	s.iters, s.initIters = 0, 0
	s.postUsed = false
	s.decodeTime, s.postTime = 0, 0
}

// NextRound returns the index of the round the stream expects next.
func (s *Stream) NextRound() int { return s.nextRound }

// Done reports whether every round of the layout has been pushed.
func (s *Stream) Done() bool { return s.nextRound >= s.d.layout.NumRounds() }

// Residual exposes the live residual syndrome (read-only view over an
// internal buffer) for invariant checks: after a successful window commit,
// every detector before the window's commit boundary must be zero.
func (s *Stream) Residual() gf2.Vec { return s.residual }

// ErrHat exposes the accumulated committed correction (read-only view).
func (s *Stream) ErrHat() gf2.Vec { return s.errHat }

// PushRound feeds the next round's detector bits (length = the layout's
// RoundDets for that round) and decodes every window the round completes.
// The returned commits — usually none or one; several only when the final
// round completes multiple trailing windows — are valid until the next
// PushRound/Reset; their Mechs slices live longer (see Commit.Mechs).
func (s *Stream) PushRound(round gf2.Vec) ([]Commit, error) {
	if s.Done() {
		return nil, fmt.Errorf("window: stream already received all %d rounds", s.d.layout.NumRounds())
	}
	lo, hi := s.d.layout.RoundRange(s.nextRound)
	if round.Len() != hi-lo {
		return nil, fmt.Errorf("window: round %d carries %d detectors, layout expects %d",
			s.nextRound, round.Len(), hi-lo)
	}
	// XOR (not overwrite): commits of earlier windows may already have
	// flipped boundary detectors of rounds that had not arrived yet.
	for wi, w := range round.Words() {
		for ; w != 0; w &= w - 1 {
			s.residual.Flip(lo + wi*64 + bits.TrailingZeros64(w))
		}
	}
	s.nextRound++

	commits := s.commitBuf[:0]
	for s.nextWindow < len(s.d.windows) && s.d.windows[s.nextWindow].span.End <= s.nextRound {
		commits = append(commits, s.decodeWindow(s.nextWindow))
		s.nextWindow++
	}
	s.commitBuf = commits
	return commits, nil
}

// decodeWindow runs window wi on the current residual and commits its
// commit-region mechanisms: ErrHat accumulates them and their full
// detector supports are XORed off the residual (boundary-syndrome
// propagation into later rounds).
func (s *Stream) decodeWindow(wi int) Commit {
	sw := &s.d.windows[wi]
	sw.subSyn.Zero()
	for i := sw.rowLo; i < sw.rowHi; i++ {
		if s.residual.Get(i) {
			sw.subSyn.Set(i-sw.rowLo, true)
		}
	}
	t0 := time.Now()
	out := sw.dec.Decode(sw.subSyn)
	dt := time.Since(t0)

	mechs := sw.committed[:0]
	for wi, w := range out.ErrHat.Words() {
		for ; w != 0; w &= w - 1 {
			j := wi*64 + bits.TrailingZeros64(w)
			if !sw.commit[j] {
				continue
			}
			m := sw.mechs[j]
			mechs = append(mechs, m)
			s.errHat.Flip(m)
			for _, r := range s.d.h.ColSupport(m) {
				s.residual.Flip(int(r))
			}
		}
	}

	sw.committed = mechs
	s.allOK = s.allOK && out.Success
	s.iters += out.Iterations
	s.initIters += out.InitIterations
	s.postUsed = s.postUsed || out.PostUsed
	s.decodeTime += dt
	s.postTime += out.PostTime
	return Commit{
		Window:     wi,
		FirstRound: sw.span.Start,
		EndRound:   sw.span.CommitEnd,
		Mechs:      mechs,
		Success:    out.Success,
		Iterations: out.Iterations,
		Time:       dt,
	}
}

// Finish closes the stream and returns the whole-stream verdict: Success
// iff every round arrived, every window's inner decode succeeded and the
// accumulated correction reproduces the full syndrome exactly (residual
// zero — guaranteed by the commit induction when all windows succeed, and
// checked anyway). ErrHat aliases the stream's buffer, valid until Reset.
func (s *Stream) Finish() decoding.Outcome {
	return decoding.Outcome{
		Success:        s.Done() && s.allOK && s.residual.IsZero(),
		ErrHat:         s.errHat,
		Iterations:     s.iters,
		InitIterations: s.initIters,
		PostUsed:       s.postUsed,
		Time:           s.decodeTime,
		PostTime:       s.postTime,
	}
}
