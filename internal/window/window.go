// Package window is the sliding-window streaming decoder subsystem:
// bounded-latency decoding of unbounded (or just long) multi-round
// syndrome streams with any registered inner decoder.
//
// A multi-round decoding problem — a detector error model of a T-round
// memory experiment, or any check matrix whose rows are grouped into
// "rounds" by a Layout — is sliced into overlapping windows of at most W
// rounds spaced C rounds apart. Window k sees the residual syndrome of
// rounds [kC, kC+W) and the error mechanisms ANCHORED there (a mechanism's
// anchor is the round of its earliest detector), decodes that sub-problem
// with a warm per-window inner decoder, and commits only the mechanisms
// anchored in its first C rounds — the commit region. Committed
// corrections' full detector supports (including detectors in rounds the
// window did not see) are XORed off the residual syndrome, which is how
// boundary syndromes propagate into the next window. Mechanisms anchored in
// the remaining W−C buffer rounds are re-decoded by the next window.
//
// Commit regions tile the round axis exactly once, so every mechanism is
// decided in exactly one window, and a simple induction gives the
// subsystem's core invariant: after window k commits, the residual
// syndrome of every round before its commit boundary is zero — provided
// each inner decode satisfied its sub-syndrome. A fully successful pass
// therefore reproduces the input syndrome exactly (H·ErrHat = s), whatever
// the inner decoder and whatever the layout.
//
// Everything is deterministic: the committed correction and final verdict
// are a pure function of (syndrome stream, W, C, inner decoder spec, seed).
// Reseeding a windowed decoder derives one independent seed per window via
// decoding.ShardSeed, so stochastic inner decoders (BP-SF) are reproducible
// too. See DESIGN.md §7.
package window

import "fmt"

// Layout groups the rows of a check matrix into contiguous rounds:
// round r covers rows [Starts[r], Starts[r+1]) with the final round ending
// at NumDets. It is the bridge between a flat detector index space and the
// round axis the windows slide along.
type Layout struct {
	// Starts[r] is the first detector (row) index of round r; Starts must
	// be strictly increasing and start at 0.
	Starts []int
	// NumDets is the total number of detectors (rows).
	NumDets int
}

// RowRounds is the generic layout-free layout: every row is its own round.
// It is what a windowed decoder spec with no layout (the registry's
// windowed entry, the code-capacity CLIs) uses when no circuit round
// structure exists.
func RowRounds(rows int) Layout {
	starts := make([]int, rows)
	for i := range starts {
		starts[i] = i
	}
	return Layout{Starts: starts, NumDets: rows}
}

// NumRounds returns the number of rounds in the layout.
func (l Layout) NumRounds() int { return len(l.Starts) }

// RoundRange returns the half-open detector index range [lo, hi) of round r.
func (l Layout) RoundRange(r int) (lo, hi int) {
	lo = l.Starts[r]
	if r+1 < len(l.Starts) {
		hi = l.Starts[r+1]
	} else {
		hi = l.NumDets
	}
	return lo, hi
}

// RoundDets returns the number of detectors in round r.
func (l Layout) RoundDets(r int) int {
	lo, hi := l.RoundRange(r)
	return hi - lo
}

// Validate checks the layout invariants against a matrix with rows rows.
func (l Layout) Validate(rows int) error {
	if len(l.Starts) == 0 {
		return fmt.Errorf("window: layout has no rounds")
	}
	if l.NumDets != rows {
		return fmt.Errorf("window: layout covers %d detectors, matrix has %d rows", l.NumDets, rows)
	}
	if l.Starts[0] != 0 {
		return fmt.Errorf("window: layout must start at detector 0, got %d", l.Starts[0])
	}
	for r := 1; r < len(l.Starts); r++ {
		if l.Starts[r] <= l.Starts[r-1] {
			return fmt.Errorf("window: layout round %d starts at %d, not after round %d (start %d)",
				r, l.Starts[r], r-1, l.Starts[r-1])
		}
	}
	if l.Starts[len(l.Starts)-1] >= l.NumDets {
		return fmt.Errorf("window: last round starts at %d, beyond %d detectors",
			l.Starts[len(l.Starts)-1], l.NumDets)
	}
	return nil
}

// roundOf builds the per-detector round lookup table.
func (l Layout) roundOf() []int {
	out := make([]int, l.NumDets)
	for r := 0; r < l.NumRounds(); r++ {
		lo, hi := l.RoundRange(r)
		for d := lo; d < hi; d++ {
			out[d] = r
		}
	}
	return out
}

// Span is one window of the partition: the rounds the window decodes
// ([Start, End)) and the prefix it commits ([Start, CommitEnd)).
type Span struct {
	Start, End int
	// CommitEnd is the exclusive end of the commit region. For every window
	// but the last, CommitEnd = Start + C; the last window commits through
	// the final round.
	CommitEnd int
}

// PartitionRounds slices rounds rounds into sliding windows of at most w
// rounds spaced c apart. Commit regions tile [0, rounds) exactly: window k
// spans [k·c, min(k·c+w, rounds)) and commits its first c rounds, except
// the last window (the first whose span reaches the final round), which
// commits everything it sees. Requires rounds ≥ 1 and 1 ≤ c ≤ w.
func PartitionRounds(rounds, w, c int) ([]Span, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("window: rounds must be ≥ 1, got %d", rounds)
	}
	if c < 1 || w < c {
		return nil, fmt.Errorf("window: need 1 ≤ commit ≤ window, got window=%d commit=%d", w, c)
	}
	var spans []Span
	for k := 0; ; k++ {
		start := k * c
		if start+w >= rounds {
			spans = append(spans, Span{Start: start, End: rounds, CommitEnd: rounds})
			return spans, nil
		}
		spans = append(spans, Span{Start: start, End: start + w, CommitEnd: start + c})
	}
}
