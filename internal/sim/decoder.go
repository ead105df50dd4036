// Package sim is the evaluation harness: Monte-Carlo logical-error-rate
// experiments under the code-capacity and circuit-level noise models,
// latency-distribution collection, the P-worker schedule model, and the GPU
// latency estimator — everything needed to regenerate the paper's tables
// and figures (see DESIGN.md §2 for the experiment index).
package sim

import (
	"time"

	"bpsf/internal/bp"
	"bpsf/internal/bposd"
	"bpsf/internal/bpsf"
	"bpsf/internal/decoding"
	"bpsf/internal/gf2"
	"bpsf/internal/osd"
	"bpsf/internal/sparse"
	"bpsf/internal/uf"
)

// Outcome is the unified per-shot decoder report consumed by the harness
// (alias of decoding.Outcome; the definition lives in the leaf package so
// add-on decoder subsystems can share it without importing sim).
type Outcome = decoding.Outcome

// Decoder is the harness-facing decoder abstraction (alias of
// decoding.Decoder).
type Decoder = decoding.Decoder

// LogicalFailed is the shared logical-verdict rule for circuit-level
// shots (decoding.LogicalFailed): unsatisfied syndrome, or predicted
// observable flips differing from the sampled truth.
func LogicalFailed(obs *sparse.Mat, out Outcome, want, scratch gf2.Vec) bool {
	return decoding.LogicalFailed(obs, out, want, scratch)
}

// ---- plain BP ----

type bpAdapter struct {
	name string
	d    *bp.Decoder
}

// NewBP wraps a plain min-sum BP decoder.
func NewBP(h *sparse.Mat, priors []float64, cfg bp.Config) Decoder {
	return &bpAdapter{
		name: Spec{Kind: "bp", BPIters: cfg.MaxIter, Layered: cfg.Schedule == bp.Layered}.String(),
		d:    bp.New(h, priors, cfg),
	}
}

func (a *bpAdapter) Name() string { return a.name }

func (a *bpAdapter) Decode(s gf2.Vec) Outcome {
	t0 := time.Now()
	r := a.d.Decode(s)
	return Outcome{
		Success:        r.Success,
		ErrHat:         r.ErrHat,
		Iterations:     r.Iterations,
		InitIterations: r.Iterations,
		Time:           time.Since(t0),
	}
}

// ---- BP-OSD ----

type bposdAdapter struct {
	name string
	d    *bposd.Decoder
}

// NewBPOSD wraps the BP-OSD baseline ("BP1000-OSD10" style).
func NewBPOSD(h *sparse.Mat, priors []float64, bpCfg bp.Config, osdCfg osd.Config) Decoder {
	return &bposdAdapter{
		name: Spec{Kind: "bposd", BPIters: bpCfg.MaxIter, Layered: bpCfg.Schedule == bp.Layered,
			OSDMethod: osdCfg.Method, OSDOrder: osdCfg.Order}.String(),
		d: bposd.New(h, priors, bpCfg, osdCfg),
	}
}

func (a *bposdAdapter) Name() string { return a.name }

func (a *bposdAdapter) Decode(s gf2.Vec) Outcome {
	r := a.d.Decode(s)
	return Outcome{
		Success:        r.Success,
		ErrHat:         r.ErrHat,
		Iterations:     r.BPIterations,
		InitIterations: r.BPIterations,
		PostUsed:       r.OSDUsed,
		Time:           r.BPTime + r.OSDTime,
		PostTime:       r.OSDTime,
	}
}

// ---- BP-SF ----

type bpsfAdapter struct {
	name string
	d    *bpsf.Decoder
}

// NewBPSF wraps the paper's BP-SF decoder.
func NewBPSF(h *sparse.Mat, priors []float64, cfg bpsf.Config) (Decoder, error) {
	d, err := bpsf.New(h, priors, cfg)
	if err != nil {
		return nil, err
	}
	spec := Spec{Kind: "bpsf", BPIters: cfg.Init.MaxIter, Layered: cfg.Init.Schedule == bp.Layered,
		Phi: cfg.PhiSize, WMax: cfg.WMax, Workers: cfg.Workers}
	if cfg.Policy == bpsf.Sampled {
		spec.NS = cfg.NS
	}
	return &bpsfAdapter{name: spec.String(), d: d}, nil
}

func (a *bpsfAdapter) Name() string { return a.name }

// Reseed re-seeds the trial-sampling RNG (Reseeder); the sharded engine
// calls it so each shard draws an independent trial stream.
func (a *bpsfAdapter) Reseed(seed int64) { a.d.Reseed(seed) }

func (a *bpsfAdapter) Decode(s gf2.Vec) Outcome {
	r := a.d.Decode(s)
	return Outcome{
		Success:         r.Success,
		ErrHat:          r.ErrHat,
		Iterations:      r.TotalIterations,
		InitIterations:  r.InitIterations,
		PostUsed:        r.UsedPostProcessing,
		Time:            r.InitTime + r.PostTime,
		PostTime:        r.PostTime,
		TrialIterations: r.TrialIterations,
		TrialSuccess:    r.TrialSuccess,
	}
}

// ---- union-find ----

type ufAdapter struct {
	d *uf.Decoder
}

// NewUF wraps the deterministic union-find decoder (internal/uf): the
// matchable-code baseline with spanning-tree peeling and a cluster-local
// elimination fallback for hypergraph check matrices. It carries no
// randomness and uses no priors, so there is no priors argument.
func NewUF(h *sparse.Mat) Decoder {
	return &ufAdapter{d: uf.New(h)}
}

func (a *ufAdapter) Name() string { return "UF" }

func (a *ufAdapter) Decode(s gf2.Vec) Outcome {
	t0 := time.Now()
	r := a.d.Decode(s)
	return Outcome{
		Success:        r.Success,
		ErrHat:         r.ErrHat,
		Iterations:     r.GrowthRounds,
		InitIterations: r.GrowthRounds,
		Time:           time.Since(t0),
	}
}
