package service

import (
	"fmt"
	"math"
	"sort"

	"bpsf/internal/bp"
	"bpsf/internal/bpsf"
	"bpsf/internal/osd"
	"bpsf/internal/sim"
	"bpsf/internal/sparse"
)

// Spec selects the decoder family behind a session, in the same vocabulary
// as cmd/bpsf-sim: "bp" (plain min-sum BP), "bposd" (BP + OSD-CS), "bpsf"
// (the paper's Algorithm 1; NS = 0 switches to exhaustive trials) or "uf"
// (the deterministic union-find decoder; ignores every tuning field).
type Spec struct {
	Kind     string // "bp" | "bposd" | "bpsf" | "uf"
	BPIters  int    // ignored by uf
	OSDOrder int    // bposd only
	Phi      int    // bpsf: |Φ|
	WMax     int    // bpsf: maximum trial weight
	NS       int    // bpsf: sampled trials per weight (0 = exhaustive)
	Layered  bool   // ignored by uf
}

// specKinds maps Kind to its wire byte.
var specKinds = map[string]byte{"bp": 0, "bposd": 1, "bpsf": 2, "uf": 3}

// SpecKinds returns the sorted decoder kind names the service accepts —
// the -decoder vocabulary of the CLIs.
func SpecKinds() []string {
	names := make([]string, 0, len(specKinds))
	for k := range specKinds {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func (s Spec) kindByte() (byte, error) {
	k, ok := specKinds[s.Kind]
	if !ok {
		return 0, fmt.Errorf("service: unknown decoder kind %q (available: %v)", s.Kind, SpecKinds())
	}
	return k, nil
}

func (s *Spec) setKindFromByte(k byte) error {
	for name, b := range specKinds {
		if b == k {
			s.Kind = name
			return nil
		}
	}
	return fmt.Errorf("service: unknown decoder kind byte %d", k)
}

// Validate checks the parameter ranges the pool builder would reject and
// the bounds of the wire encoding (silent uint16/uint32 truncation would
// build a different decoder than the caller configured).
func (s Spec) Validate() error {
	if _, err := s.kindByte(); err != nil {
		return err
	}
	if s.Kind != "uf" && (s.BPIters <= 0 || s.BPIters > math.MaxUint32) {
		return fmt.Errorf("service: BPIters %d out of range [1, %d]", s.BPIters, uint32(math.MaxUint32))
	}
	if s.Kind == "uf" && (s.BPIters < 0 || s.BPIters > math.MaxUint32) {
		return fmt.Errorf("service: BPIters %d out of range [0, %d]", s.BPIters, uint32(math.MaxUint32))
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"OSDOrder", s.OSDOrder}, {"Phi", s.Phi}, {"WMax", s.WMax}, {"NS", s.NS}} {
		if f.v < 0 || f.v > math.MaxUint16 {
			return fmt.Errorf("service: %s %d out of range [0, %d]", f.name, f.v, math.MaxUint16)
		}
	}
	if s.Kind == "bpsf" && (s.Phi <= 0 || s.WMax <= 0) {
		return fmt.Errorf("service: bpsf spec needs positive Phi and WMax, got phi=%d wmax=%d", s.Phi, s.WMax)
	}
	return nil
}

// String renders the spec as the pool-key / report label.
func (s Spec) String() string {
	sched := ""
	if s.Layered {
		sched = ",layered"
	}
	switch s.Kind {
	case "uf":
		return "UF"
	case "bp":
		return fmt.Sprintf("BP%d%s", s.BPIters, sched)
	case "bposd":
		return fmt.Sprintf("BP%d-OSD%d%s", s.BPIters, s.OSDOrder, sched)
	case "bpsf":
		if s.NS > 0 {
			return fmt.Sprintf("BP-SF(BP%d,wmax=%d,phi=%d,ns=%d%s)", s.BPIters, s.WMax, s.Phi, s.NS, sched)
		}
		return fmt.Sprintf("BP-SF(BP%d,wmax=%d,phi=%d%s)", s.BPIters, s.WMax, s.Phi, sched)
	default:
		return s.Kind
	}
}

// NewDecoder builds one decoder instance for the spec. Decoders carrying
// internal randomness are reseeded per request by the pool (see
// RequestSeed), so the construction seed is irrelevant to responses.
func (s Spec) NewDecoder(h *sparse.Mat, priors []float64) (sim.Decoder, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sched := bp.Flooding
	if s.Layered {
		sched = bp.Layered
	}
	switch s.Kind {
	case "uf":
		return sim.NewUF(h), nil
	case "bp":
		return sim.NewBP(h, priors, bp.Config{MaxIter: s.BPIters, Schedule: sched}), nil
	case "bposd":
		return sim.NewBPOSD(h, priors,
			bp.Config{MaxIter: s.BPIters, Schedule: sched},
			osd.Config{Method: osd.OSDCS, Order: s.OSDOrder}), nil
	default: // "bpsf", by Validate
		policy := bpsf.Sampled
		if s.NS == 0 {
			policy = bpsf.Exhaustive
		}
		return sim.NewBPSF(h, priors, bpsf.Config{
			Init:    bp.Config{MaxIter: s.BPIters, Schedule: sched},
			Trial:   bp.Config{MaxIter: s.BPIters, Schedule: sched},
			PhiSize: s.Phi,
			WMax:    s.WMax,
			NS:      s.NS,
			Policy:  policy,
		})
	}
}

// RequestSeed is the deterministic decoder seed of the index-th syndrome
// of a session opened with streamSeed. The server reseeds the pooled
// decoder with it before every decode, so a stream replayed through the
// service — or through a local decoder reseeded the same way — yields
// byte-identical estimates regardless of pool size, batching or
// interleaving with other sessions.
func RequestSeed(streamSeed int64, index int) int64 {
	return sim.ShardSeed(streamSeed, index)
}

// SampleSeed is the deterministic seed of a session's server-side batch
// frame sampler (msgSample requests): a splitmix stream index outside the
// RequestSeed range, so sampling randomness and decoder randomness never
// collide. Replaying a session's sample requests with the same StreamSeed
// reproduces every sampled syndrome — and through RequestSeed every
// response — byte-identically.
func SampleSeed(streamSeed int64) int64 {
	return sim.ShardSeed(streamSeed, -1)
}
