package experiments

import (
	"fmt"

	"bpsf/internal/bp"
	bpsfcore "bpsf/internal/bpsf"
	"bpsf/internal/codes"
	"bpsf/internal/noise"
	"bpsf/internal/sim"
	"bpsf/internal/sparse"
)

// AblationDamping compares the paper's adaptive damping α = 1−2⁻ⁱ against
// fixed normalization factors on the J154,6,16K code under code capacity
// (DESIGN.md decision 1).
func AblationDamping(o Opts) (FigureResult, error) {
	css, err := codes.CoprimeBB154()
	if err != nil {
		return FigureResult{}, err
	}
	const p = 0.05
	shots := o.shots(800)
	tb := sim.NewTable("damping", "failures", "LER", "avg iters")
	res := FigureResult{Name: "ablation-damping"}
	for _, tc := range []struct {
		label string
		alpha float64
	}{
		{"adaptive 1-2^-i", 0},
		{"fixed 0.625", 0.625},
		{"fixed 0.8", 0.8},
		{"fixed 1.0 (no damping)", 1.0},
	} {
		mk := func(h *sparse.Mat, priors []float64) (sim.Decoder, error) {
			return sim.NewBP(h, priors, bp.Config{MaxIter: 100, FixedAlpha: tc.alpha}), nil
		}
		mc, err := sim.RunCapacity(css, mk, sim.Config{P: p, Shots: shots, Seed: o.seed(), Workers: o.workers()})
		if err != nil {
			return res, err
		}
		tb.Row(tc.label, mc.Failures, mc.LER, mc.AvgIters)
		s := sim.Series{Label: tc.label}
		s.Add(p, mc.LER)
		res.Series = append(res.Series, s)
	}
	fmt.Fprintln(o.out(), "== ablation: min-sum damping, coprime-BB[[154,6,16]], p=0.05 ==")
	err = tb.Write(o.out())
	return res, err
}

// AblationVariant compares the paper's min-sum check rule against exact
// sum-product as the BP-SF inner decoder (the paper's conclusion suggests
// swapping in "more advanced BP-based techniques"; this quantifies the
// swap on the J154,6,16K code where min-sum struggles).
func AblationVariant(o Opts) (FigureResult, error) {
	css, err := codes.CoprimeBB154()
	if err != nil {
		return FigureResult{}, err
	}
	const p = 0.05
	shots := o.shots(600)
	tb := sim.NewTable("inner BP", "decoder", "failures", "LER", "avg iters")
	res := FigureResult{Name: "ablation-variant"}
	for _, tc := range []struct {
		label   string
		variant bp.Variant
	}{
		{"min-sum (paper)", bp.MinSum},
		{"sum-product", bp.SumProduct},
	} {
		for _, kind := range []string{"bp", "bpsf"} {
			mk := func(h *sparse.Mat, priors []float64) (sim.Decoder, error) {
				if kind == "bp" {
					return sim.NewBP(h, priors, bp.Config{MaxIter: 100, Variant: tc.variant}), nil
				}
				return sim.NewBPSF(h, priors, bpsfcore.Config{
					Init:    bp.Config{MaxIter: 50, Variant: tc.variant},
					Trial:   bp.Config{MaxIter: 50, Variant: tc.variant},
					PhiSize: 8,
					WMax:    1,
					Policy:  bpsfcore.Exhaustive,
				})
			}
			mc, err := sim.RunCapacity(css, mk, sim.Config{P: p, Shots: shots, Seed: o.seed(), Workers: o.workers()})
			if err != nil {
				return res, err
			}
			tb.Row(tc.label, kind, mc.Failures, mc.LER, mc.AvgIters)
			s := sim.Series{Label: tc.label + " " + kind}
			s.Add(p, mc.LER)
			res.Series = append(res.Series, s)
		}
	}
	fmt.Fprintln(o.out(), "== ablation: min-sum vs sum-product inner BP, coprime-BB[[154,6,16]], p=0.05 ==")
	err = tb.Write(o.out())
	return res, err
}

// AblationTrialPolicy compares exhaustive and sampled trial generation at
// matched trial budgets (DESIGN.md decision 3).
func AblationTrialPolicy(o Opts) (FigureResult, error) {
	css, err := codes.CoprimeBB154()
	if err != nil {
		return FigureResult{}, err
	}
	const p = 0.06
	shots := o.shots(800)
	tb := sim.NewTable("policy", "trials/failure", "failures", "LER")
	res := FigureResult{Name: "ablation-trials"}
	specs := []sim.Spec{
		BPSFCapacitySpec(50, 8, 2),    // C(8,1)+C(8,2) = 36 trials
		BPSFCircuitSpec(50, 8, 2, 18), // sampled: 2×18 = 36 trials
	}
	labels := []string{"exhaustive w≤2 (36 trials)", "sampled ns=18,wmax=2 (36 trials)"}
	for i, spec := range specs {
		mc, err := sim.RunCapacity(css, spec.NewDecoder, sim.Config{P: p, Shots: shots, Seed: o.seed(), Workers: o.workers()})
		if err != nil {
			return res, err
		}
		tb.Row(labels[i], 36, mc.Failures, mc.LER)
		s := sim.Series{Label: labels[i]}
		s.Add(p, mc.LER)
		res.Series = append(res.Series, s)
	}
	fmt.Fprintln(o.out(), "== ablation: trial generation policy, coprime-BB[[154,6,16]], p=0.06 ==")
	err = tb.Write(o.out())
	return res, err
}

// AblationFirstSuccess quantifies the paper's first-success design choice
// (§IV): returning the first syndrome-satisfying trial instead of choosing
// among all of them. It decodes every trial of each post-processed shot,
// counts the logical failures of the first-success estimate, and counts
// the shots where at least two trials succeeded — the shots on which any
// other selection rule could have answered differently (DESIGN.md
// decision 4).
func AblationFirstSuccess(o Opts) (FigureResult, error) {
	css, err := codes.CoprimeBB154()
	if err != nil {
		return FigureResult{}, err
	}
	const p = 0.06
	shots := o.shots(600)
	q := noise.MarginalProb(p)
	h := css.HZ
	dec, err := bpsfcore.New(h, noise.UniformPriors(css.N, q), bpsfcore.Config{
		Init:            bp.Config{MaxIter: 50},
		Trial:           bp.Config{MaxIter: 50},
		PhiSize:         8,
		WMax:            2,
		Policy:          bpsfcore.Exhaustive,
		DecodeAllTrials: true,
	})
	if err != nil {
		return FigureResult{}, err
	}
	// DecodeAllTrials records every trial's success; the decoder's output
	// is the first success.
	sampler := noise.NewCapacitySampler(css.N, p, o.seed())
	firstFail, disagreements, postShots := 0, 0, 0
	for shot := 0; shot < shots; shot++ {
		ex, _ := sampler.Sample()
		s := css.SyndromeOfX(ex)
		r := dec.Decode(s)
		if !r.UsedPostProcessing || !r.Success {
			if r.UsedPostProcessing && !r.Success {
				firstFail++
			}
			continue
		}
		postShots++
		resid := ex.Clone()
		resid.Xor(r.ErrHat)
		firstIsLogical := css.IsLogicalX(resid)
		if firstIsLogical {
			firstFail++
		}
		if bestDiffersFromFirst(r) {
			disagreements++
		}
	}
	tb := sim.NewTable("metric", "value")
	tb.Row("post-processed shots", postShots)
	tb.Row("first-success logical failures", firstFail)
	tb.Row("shots where a later trial also succeeded", disagreements)
	fmt.Fprintln(o.out(), "== ablation: first-success vs best selection, coprime-BB[[154,6,16]], p=0.06 ==")
	err = tb.Write(o.out())
	s := sim.Series{Label: "first-success failures"}
	s.Add(p, float64(firstFail))
	return FigureResult{Name: "ablation-first-success", Series: []sim.Series{s}}, err
}

// bestDiffersFromFirst reports whether more than one trial succeeded, so
// that a selection rule other than first-success had a choice to make.
func bestDiffersFromFirst(r bpsfcore.Result) bool {
	seen := 0
	for _, ok := range r.TrialSuccess {
		if ok {
			seen++
		}
	}
	return seen > 1
}
