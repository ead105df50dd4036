package window

import (
	"fmt"
	"time"

	"bpsf/internal/decoding"
	"bpsf/internal/gf2"
	"bpsf/internal/sparse"
)

// subWindow is one window's warm state, built once at construction and
// reused for every shot/stream the decoder serves.
type subWindow struct {
	span Span
	// rowLo/rowHi is the contiguous global detector range of the window.
	rowLo, rowHi int
	// mechs maps local column index → global mechanism index; commit[j]
	// marks local columns anchored in the commit region.
	mechs  []int
	commit []bool
	// dec is the warm inner decoder over the windowed sub-matrix.
	dec decoding.Decoder
	// subSyn is the reusable sub-syndrome scratch vector.
	subSyn gf2.Vec
	// committed backs the Mechs of this window's Commit.
	committed []int
}

// Decoder is a sliding-window wrapper around any inner decoder family. It
// implements decoding.Decoder (whole-syndrome Decode) and decoding.Reseeder
// and additionally serves incremental round-by-round streams through
// NewStream. Not safe for concurrent use: a Decoder owns warm per-window
// inner decoders and scratch buffers; create one per goroutine (or per
// served stream) like any other decoder in this repo.
type Decoder struct {
	h       *sparse.Mat
	layout  Layout
	w, c    int
	spans   []Span
	windows []subWindow
	name    string

	// stream is the reusable whole-syndrome decode state (Decode is
	// implemented as a replayed stream, so the two paths cannot diverge);
	// rounds holds one detector vector per round for that replay.
	stream *Stream
	rounds []gf2.Vec
}

// New builds a windowed decoder over check matrix h with per-mechanism
// priors, slicing rows into rounds per layout and windows of w rounds
// committing c. The inner factory is invoked once per window on the
// windowed sub-matrix and sub-priors — the warm per-window decoder state.
// Mechanisms with an empty detector support are excluded from every window
// (they can never be inferred from a syndrome) and stay zero in estimates.
func New(h *sparse.Mat, priors []float64, layout Layout, w, c int, inner decoding.Factory) (*Decoder, error) {
	if err := layout.Validate(h.Rows()); err != nil {
		return nil, err
	}
	if len(priors) != h.Cols() {
		return nil, fmt.Errorf("window: %d priors for %d mechanisms", len(priors), h.Cols())
	}
	spans, err := PartitionRounds(layout.NumRounds(), w, c)
	if err != nil {
		return nil, err
	}

	// anchor[m] is the round of mechanism m's earliest detector (−1 for
	// empty columns). Mechanism m is visible in every window whose span
	// contains its anchor and committed by the one whose commit region does.
	roundOf := layout.roundOf()
	anchor := make([]int, h.Cols())
	for m := range anchor {
		sup := h.ColSupport(m)
		if len(sup) == 0 {
			anchor[m] = -1
			continue
		}
		anchor[m] = roundOf[sup[0]]
	}

	d := &Decoder{h: h, layout: layout, w: w, c: c, spans: spans}
	for _, span := range spans {
		rowLo, _ := layout.RoundRange(span.Start)
		_, rowHi := layout.RoundRange(span.End - 1)
		sw := subWindow{span: span, rowLo: rowLo, rowHi: rowHi, subSyn: gf2.NewVec(rowHi - rowLo)}
		for m := 0; m < h.Cols(); m++ {
			if anchor[m] >= span.Start && anchor[m] < span.End {
				sw.mechs = append(sw.mechs, m)
				sw.commit = append(sw.commit, anchor[m] < span.CommitEnd)
			}
		}
		sb := sparse.NewBuilder(rowHi-rowLo, len(sw.mechs))
		subPriors := make([]float64, len(sw.mechs))
		for j, m := range sw.mechs {
			subPriors[j] = priors[m]
			for _, r := range h.ColSupport(m) {
				if r := int(r); r >= rowLo && r < rowHi {
					sb.Set(r-rowLo, j)
				}
			}
		}
		dec, err := inner(sb.Build(), subPriors)
		if err != nil {
			return nil, fmt.Errorf("window: building inner decoder for window [%d,%d): %w",
				span.Start, span.End, err)
		}
		sw.dec = dec
		d.windows = append(d.windows, sw)
	}
	d.name = fmt.Sprintf("W%dC%d[%s]", w, c, d.windows[0].dec.Name())
	d.stream = d.NewStream()
	d.rounds = make([]gf2.Vec, layout.NumRounds())
	for r := range d.rounds {
		lo, hi := layout.RoundRange(r)
		d.rounds[r] = gf2.NewVec(hi - lo)
	}
	return d, nil
}

// Name returns "W<w>C<c>[<inner name>]".
func (d *Decoder) Name() string { return d.name }

// Window and Commit return the configured window and commit round counts.
func (d *Decoder) Window() int { return d.w }

// Commit returns the commit-region round count C.
func (d *Decoder) Commit() int { return d.c }

// Layout returns the round layout the decoder slices by.
func (d *Decoder) Layout() Layout { return d.layout }

// Spans returns the window partition (shared slice; do not modify).
func (d *Decoder) Spans() []Span { return d.spans }

// Reseed forwards an independent per-window seed (decoding.ShardSeed) to
// every inner decoder that carries randomness, making windowed BP-SF —
// and any future stochastic inner — deterministic per (seed, stream).
func (d *Decoder) Reseed(seed int64) {
	for i := range d.windows {
		decoding.Reseed(d.windows[i].dec, decoding.ShardSeed(seed, i))
	}
}

// Decode decodes one complete multi-round syndrome by replaying it through
// the streaming path round by round: the whole-history entry point and the
// streaming entry point are the same code, so a service stream replay is
// byte-identical to a library Decode by construction. The returned
// Outcome's ErrHat aliases an internal buffer valid until the next Decode.
func (d *Decoder) Decode(s gf2.Vec) decoding.Outcome {
	t0 := time.Now()
	st := d.stream
	st.Reset()
	for r, round := range d.rounds {
		lo, hi := d.layout.RoundRange(r)
		round.Zero()
		for i := lo; i < hi; i++ {
			if s.Get(i) {
				round.Set(i-lo, true)
			}
		}
		st.PushRound(round)
	}
	out := st.Finish()
	out.Time = time.Since(t0)
	return out
}
