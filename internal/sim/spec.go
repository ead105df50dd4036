package sim

import (
	"fmt"
	"sort"

	"bpsf/internal/bp"
	"bpsf/internal/bpsf"
	"bpsf/internal/osd"
	"bpsf/internal/sparse"
	"bpsf/internal/window"
)

// Spec is one decoder configuration, named the way the paper names its
// decoders (BP1000-OSD10, BP-SF(BP100,wmax=10,phi=50,ns=10)). It is the
// single configuration type of the repo: figure grids, the CLIs, the
// decoder registry and the decode service (service.Spec is an alias) all
// build decoders through NewDecoder.
type Spec struct {
	Kind    string // "bp" | "bposd" | "bpsf" | "uf" (uf ignores every tuning field)
	BPIters int    // BP iteration cap (BP-SF: initial and trial BP)
	Layered bool   // layered BP schedule instead of flooding
	// OSDMethod and OSDOrder configure bposd post-processing; the zero
	// method is OSD-CS.
	OSDMethod osd.Method
	OSDOrder  int
	Phi       int // bpsf: |Φ|
	WMax      int // bpsf: maximum trial weight
	NS        int // bpsf: sampled trials per weight (0 = exhaustive)
	Workers   int // bpsf: lanes within one decode, splitting a large initial BP and taking the trials by lane (0 or 1 = one); part of the decoder
	// Window > 0 wraps the decoder in the sliding-window scheduler
	// (internal/window): windows of Window rounds committing Commit
	// (0 = 1), sliced by Layout — or rows-as-rounds when Layout is zero
	// (code capacity).
	Window, Commit int
	Layout         window.Layout
}

// commit is the effective committed-round count of a windowed spec.
func (s Spec) commit() int {
	if s.Commit == 0 {
		return 1
	}
	return s.Commit
}

// Validate checks the semantic rules a decoder needs; every error names
// the offending field. NewDecoder calls it, and the CLIs call it before
// any shot runs.
func (s Spec) Validate() error {
	switch s.Kind {
	case "bp", "bposd", "bpsf", "uf":
	default:
		return fmt.Errorf("decoder spec: unknown Kind %q (want bp, bposd, bpsf or uf)", s.Kind)
	}
	if s.Kind != "uf" && s.BPIters <= 0 {
		return fmt.Errorf("decoder spec: BPIters %d must be positive", s.BPIters)
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"BPIters", s.BPIters}, {"OSDOrder", s.OSDOrder}, {"Phi", s.Phi}, {"WMax", s.WMax},
		{"NS", s.NS}, {"Workers", s.Workers}, {"Window", s.Window}, {"Commit", s.Commit},
	} {
		if f.v < 0 {
			return fmt.Errorf("decoder spec: %s %d must not be negative", f.name, f.v)
		}
	}
	if s.Kind == "bpsf" && (s.Phi == 0 || s.WMax == 0) {
		return fmt.Errorf("decoder spec: bpsf needs positive Phi and WMax, got Phi %d, WMax %d", s.Phi, s.WMax)
	}
	if s.Window > 0 && s.commit() > s.Window {
		return fmt.Errorf("decoder spec: Commit %d exceeds Window %d", s.Commit, s.Window)
	}
	return nil
}

// String is the legend, report and pool-key label: "BP1000",
// "BP1000-OSD10", "BP-SF(BP100,wmax=10,phi=50,ns=10)", "UF", with a
// ",layered" suffix for the layered schedule, ",P=<lanes>" for parallel
// BP-SF trials, and "W<w>C<c>[inner]" around a windowed spec.
func (s Spec) String() string {
	if s.Window > 0 {
		inner := s
		inner.Window, inner.Commit = 0, 0
		return fmt.Sprintf("W%dC%d[%s]", s.Window, s.commit(), inner)
	}
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
		method := "" // OSD-CS and OSD-0 (order 0) read as OSD<order>
		if s.OSDMethod == osd.OSDE {
			method = "-E"
		}
		return fmt.Sprintf("BP%d-OSD%s%d%s", s.BPIters, method, s.OSDOrder, sched)
	case "bpsf":
		l := fmt.Sprintf("BP-SF(BP%d,wmax=%d,phi=%d", s.BPIters, s.WMax, s.Phi)
		if s.NS > 0 {
			l += fmt.Sprintf(",ns=%d", s.NS)
		}
		if s.Workers > 1 {
			l += fmt.Sprintf(",P=%d", s.Workers)
		}
		return l + sched + ")"
	default:
		return s.Kind
	}
}

// NewDecoder builds one decoder instance for the spec; it has the Factory
// signature, so spec.NewDecoder is a Factory. BP-SF's trial-sampling RNG
// is seeded by the consumer (Reseed) before the first decode, so the spec
// carries no seed.
func (s Spec) NewDecoder(h *sparse.Mat, priors []float64) (Decoder, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Window > 0 {
		inner := s
		inner.Window, inner.Commit, inner.Layout = 0, 0, window.Layout{}
		layout := s.Layout
		if len(layout.Starts) == 0 {
			layout = window.RowRounds(h.Rows())
		}
		wd, err := window.New(h, priors, layout, s.Window, s.commit(), inner.NewDecoder)
		if err != nil {
			return nil, err
		}
		return wd, nil
	}
	bpCfg := bp.Config{MaxIter: s.BPIters}
	if s.Layered {
		bpCfg.Schedule = bp.Layered
	}
	switch s.Kind {
	case "uf":
		return NewUF(h), nil
	case "bp":
		return NewBP(h, priors, bpCfg), nil
	case "bposd":
		return NewBPOSD(h, priors, bpCfg, osd.Config{Method: s.OSDMethod, Order: s.OSDOrder}), nil
	default: // "bpsf", by Validate
		policy := bpsf.Sampled
		if s.NS == 0 {
			policy = bpsf.Exhaustive
		}
		return NewBPSF(h, priors, bpsf.Config{
			Init:    bpCfg,
			PhiSize: s.Phi,
			WMax:    s.WMax,
			NS:      s.NS,
			Policy:  policy,
			Workers: s.Workers,
		})
	}
}

// ---- decoder registry ----

// DecoderSpecs returns the registered decoder specs keyed by the names of
// every -decoder flag, each a small default configuration. "windowed" is
// the registry's windowed BP-OSD; the other names are the four kinds and
// are also the decode service's batch kinds. The conformance suite and
// the decode bench iterate this table, so a decoder added here is covered
// by both.
func DecoderSpecs() map[string]Spec {
	return map[string]Spec{
		"bp":       {Kind: "bp", BPIters: 100},
		"bposd":    {Kind: "bposd", BPIters: 100, OSDOrder: 5},
		"bpsf":     {Kind: "bpsf", BPIters: 50, Phi: 8, WMax: 2},
		"uf":       {Kind: "uf"},
		"windowed": {Kind: "bposd", BPIters: 100, OSDOrder: 5, Window: 3, Commit: 1},
	}
}

// DecoderNames returns the sorted registry names — the vocabulary of
// every -decoder flag.
func DecoderNames() []string {
	reg := DecoderSpecs()
	names := make([]string, 0, len(reg))
	for k := range reg {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// DecoderSpec returns the registry spec called name, or an error naming
// the available set.
func DecoderSpec(name string) (Spec, error) {
	s, ok := DecoderSpecs()[name]
	if !ok {
		return Spec{}, fmt.Errorf("unknown decoder %q (available: %v)", name, DecoderNames())
	}
	return s, nil
}

// FlagSpec resolves a CLI's -decoder name over the spec its tuning flags
// filled in: the name picks the Kind, and "windowed" also picks the
// registry's window unless -window gave one. The result is validated, so
// a CLI exits on a bad flag before any shot runs.
func FlagSpec(name string, flags Spec) (Spec, error) {
	def, err := DecoderSpec(name)
	if err != nil {
		return Spec{}, err
	}
	flags.Kind = def.Kind
	if flags.Window == 0 {
		flags.Window = def.Window
	}
	return flags, flags.Validate()
}

// CheckP rejects a physical error rate outside the open interval (0, 1),
// NaN included. The CLIs and the decode service share it, so a bad rate
// fails before any shard starts or any session opens.
func CheckP(p float64) error {
	if !(p > 0 && p < 1) {
		return fmt.Errorf("physical error rate %g out of (0,1)", p)
	}
	return nil
}
