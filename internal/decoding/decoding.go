// Package decoding holds the harness-facing decoder abstraction shared by
// every layer of the stack: the unified per-shot Outcome report, the
// Decoder interface, the Factory constructor signature and the
// deterministic seed-splitting helpers.
//
// It is a leaf package (it depends only on gf2 and sparse) so that add-on
// decoder subsystems — the sliding-window scheduler in internal/window is
// the motivating case — can both CONSUME inner decoders through Factory and
// BE consumed by the sim harness through Decoder without an import cycle.
// Package sim re-exports every name here as a type alias, so harness code
// keeps using sim.Decoder/sim.Outcome/sim.Factory unchanged.
package decoding

import (
	"time"

	"bpsf/internal/gf2"
	"bpsf/internal/sparse"
)

// Outcome is the unified per-shot decoder report consumed by the harness.
type Outcome struct {
	// Success is true when the decoder produced a syndrome-satisfying
	// estimate.
	Success bool
	// ErrHat is the estimated error pattern.
	ErrHat gf2.Vec
	// Iterations is the serial-accounting BP iteration count (initial +
	// cumulative trials for BP-SF; BP iterations for BP and BP-OSD).
	Iterations int
	// PostUsed reports whether post-processing (OSD or syndrome-flip
	// trials) ran.
	PostUsed bool
	// Time is the total wall-clock decode duration, PostTime the
	// post-processing share.
	Time, PostTime time.Duration
	// TrialIterations/TrialSuccess are BP-SF per-trial records (nil for
	// other decoders).
	TrialIterations []int
	TrialSuccess    []bool
	// InitIterations is the initial-stage iteration count.
	InitIterations int
}

// Decoder is the harness-facing decoder abstraction.
type Decoder interface {
	// Name returns a short label for reports ("BP1000-OSD10", "BP-SF", ...).
	Name() string
	// Decode decodes one syndrome.
	Decode(s gf2.Vec) Outcome
}

// Factory builds a Decoder for a given parity-check matrix and per-bit
// priors. The harness calls it once per shard and decoding side (code
// capacity) or once per shard (circuit level), so it may be invoked from
// concurrent goroutines and must not share mutable state between the
// decoders it returns.
type Factory func(h *sparse.Mat, priors []float64) (Decoder, error)

// LogicalFailed is the one logical-verdict rule shared by the Monte-Carlo
// engine's circuit paths and the decode service's server-sampled requests:
// a shot fails when the decode did not satisfy the syndrome, or when the
// estimate's predicted observable flips (obs·ErrHat, computed into
// scratch) differ from the sampled truth.
func LogicalFailed(obs *sparse.Mat, out Outcome, want, scratch gf2.Vec) bool {
	if !out.Success {
		return true
	}
	obs.MulVecInto(scratch, out.ErrHat)
	return !scratch.Equal(want)
}

// Reseeder is implemented by decoders owning internal randomness (BP-SF
// trial sampling, windowed wrappers around it). The engine reseeds each
// shard's decoder deterministically so stochastic post-processing is also
// independent per shard.
type Reseeder interface {
	Reseed(seed int64)
}

// Reseed reseeds dec if it carries internal randomness; a no-op otherwise.
func Reseed(dec Decoder, seed int64) {
	if r, ok := dec.(Reseeder); ok {
		r.Reseed(seed)
	}
}

// ShardSeed derives the deterministic seed of one shard (or window, or
// request) from a run seed via a splitmix64 step: statistically independent
// streams for adjacent indices, stable across platforms.
func ShardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + (uint64(shard)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
