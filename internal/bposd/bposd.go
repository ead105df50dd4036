// Package bposd composes belief propagation with ordered-statistics
// decoding: the paper's baseline decoder ("BP1000-OSD10" etc.). BP runs
// first; if it fails to converge, OSD post-processing is invoked with BP's
// posterior LLRs as the reliability metric.
package bposd

import (
	"time"

	"bpsf/internal/bp"
	"bpsf/internal/gf2"
	"bpsf/internal/osd"
	"bpsf/internal/sparse"
)

// Result reports a BP-OSD decode.
type Result struct {
	// Success is false only when BP failed AND the syndrome was outside the
	// column space of H (cannot happen for syndromes sampled from the code's
	// own error model).
	Success bool
	// ErrHat is the estimated error. It aliases a buffer of the BP or OSD
	// decoder and is overwritten by the next Decode.
	ErrHat gf2.Vec
	// BPIterations is the number of BP iterations used.
	BPIterations int
	// OSDUsed reports whether post-processing ran.
	OSDUsed bool
	// BPTime and OSDTime are the wall-clock durations of the two stages.
	BPTime, OSDTime time.Duration
}

// Decoder is a reusable BP-OSD decoder. Like bp.Decoder it is not safe for
// concurrent use.
type Decoder struct {
	BP  *bp.Decoder
	OSD *osd.Decoder
}

// New builds a BP-OSD decoder over parity-check matrix h with per-bit error
// probabilities probs.
func New(h *sparse.Mat, probs []float64, bpCfg bp.Config, osdCfg osd.Config) *Decoder {
	return &Decoder{
		BP:  bp.New(h, probs, bpCfg),
		OSD: osd.New(h, osdCfg),
	}
}

// Decode runs BP, then OSD on failure.
func (d *Decoder) Decode(s gf2.Vec) Result {
	t0 := time.Now()
	bpRes := d.BP.Decode(s)
	bpTime := time.Since(t0)
	if bpRes.Success {
		return Result{
			Success:      true,
			ErrHat:       bpRes.ErrHat,
			BPIterations: bpRes.Iterations,
			BPTime:       bpTime,
		}
	}
	t1 := time.Now()
	osdRes := d.OSD.Decode(s, bpRes.Marginal)
	osdTime := time.Since(t1)
	res := Result{
		Success:      osdRes.OK,
		BPIterations: bpRes.Iterations,
		OSDUsed:      true,
		BPTime:       bpTime,
		OSDTime:      osdTime,
	}
	if osdRes.OK {
		res.ErrHat = osdRes.ErrHat
	} else {
		res.ErrHat = bpRes.ErrHat
	}
	return res
}
