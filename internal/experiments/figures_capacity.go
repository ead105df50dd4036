package experiments

import (
	"bpsf/internal/codes"
	"bpsf/internal/sim"
)

// Fig5 reproduces Figure 5: logical error rates of the J154,6,16K
// coprime-BB code under the code-capacity model. Decoders: BP-SF (BP50,
// wmax=1, |Φ|=8), BP1000-OSD10, BP1000-OSD0, BP1000.
func Fig5(o Opts) (FigureResult, error) {
	css, err := codes.CoprimeBB154()
	if err != nil {
		return FigureResult{}, err
	}
	specs := []sim.Spec{
		BPSFCapacitySpec(50, 8, 1),
		BPOSDSpec(1000, 10),
		BPOSD0Spec(1000),
		BPSpec(1000),
	}
	ps := []float64{0.02, 0.04, 0.06, 0.10}
	if o.Full {
		ps = []float64{0.01, 0.02, 0.03, 0.05, 0.07, 0.10}
	}
	return capacitySweep("fig05", css, specs, ps, o.shots(1000), o)
}

// Fig6 reproduces Figure 6: the J288,12,18K BB code under code capacity.
// BP-SF uses BP50, wmax=1, |Φ|=20.
func Fig6(o Opts) (FigureResult, error) {
	css, err := codes.BB288()
	if err != nil {
		return FigureResult{}, err
	}
	specs := []sim.Spec{
		BPSFCapacitySpec(50, 20, 1),
		BPOSDSpec(1000, 10),
		BPOSD0Spec(1000),
		BPSpec(1000),
	}
	ps := []float64{0.04, 0.06, 0.09}
	if o.Full {
		ps = []float64{0.03, 0.04, 0.06, 0.08, 0.10}
	}
	return capacitySweep("fig06", css, specs, ps, o.shots(600), o)
}

// Fig17a reproduces Figure 17(a): "good codes for BP" under code capacity —
// J72,12,6K (|Φ|=4) and J144,12,12K (|Φ|=7), where BP alone already matches
// BP-OSD and post-processing yields marginal gains.
func Fig17a(o Opts) (FigureResult, error) {
	ps := []float64{0.02, 0.05, 0.08}
	if o.Full {
		ps = []float64{0.01, 0.02, 0.04, 0.06, 0.10}
	}
	out := FigureResult{Name: "fig17a"}
	for _, tc := range []struct {
		name string
		phi  int
	}{{"bb72", 4}, {"bb144", 7}} {
		css, err := codes.Get(tc.name)
		if err != nil {
			return out, err
		}
		specs := []sim.Spec{
			BPSFCapacitySpec(50, tc.phi, 1),
			BPOSDSpec(1000, 10),
			BPSpec(1000),
		}
		sub, err := capacitySweep("fig17a/"+tc.name, css, specs, ps, o.shots(800), o)
		if err != nil {
			return out, err
		}
		for i := range sub.Series {
			sub.Series[i].Label = tc.name + " " + sub.Series[i].Label
		}
		out.Series = append(out.Series, sub.Series...)
	}
	return out, nil
}

// Fig17b reproduces Figure 17(b): J126,12,10K (|Φ|=6) and the J254,28K GB
// code (|Φ|=13) under code capacity.
func Fig17b(o Opts) (FigureResult, error) {
	ps := []float64{0.02, 0.05, 0.08}
	if o.Full {
		ps = []float64{0.01, 0.02, 0.04, 0.06, 0.10}
	}
	out := FigureResult{Name: "fig17b"}
	for _, tc := range []struct {
		name string
		phi  int
	}{{"coprime126", 6}, {"gb254", 13}} {
		css, err := codes.Get(tc.name)
		if err != nil {
			return out, err
		}
		specs := []sim.Spec{
			BPSFCapacitySpec(50, tc.phi, 1),
			BPOSDSpec(1000, 10),
			BPSpec(1000),
		}
		sub, err := capacitySweep("fig17b/"+tc.name, css, specs, ps, o.shots(500), o)
		if err != nil {
			return out, err
		}
		for i := range sub.Series {
			sub.Series[i].Label = tc.name + " " + sub.Series[i].Label
		}
		out.Series = append(out.Series, sub.Series...)
	}
	return out, nil
}

// Table2 validates the BB code constructions of the paper's Table II
// (parameters are asserted at construction time; this reports them).
func Table2(o Opts) (FigureResult, error) {
	return constructionTable("table2", []string{"bb72", "bb144", "bb288"}, o)
}

// Table3 validates the coprime-BB constructions of Table III.
func Table3(o Opts) (FigureResult, error) {
	return constructionTable("table3", []string{"coprime126", "coprime154"}, o)
}

func constructionTable(name string, names []string, o Opts) (FigureResult, error) {
	tb := newConstructionTable()
	res := FigureResult{Name: name}
	for _, n := range names {
		css, err := codes.Get(n)
		if err != nil {
			return res, err
		}
		if err := css.CheckValid(); err != nil {
			return res, err
		}
		tb.Row(css.Name, css.N, css.K, css.D, css.HX.Rows(), css.HX.MaxRowWeight())
		s := newParamSeries(n, css.N, css.K)
		res.Series = append(res.Series, s)
	}
	if err := tb.Write(o.out()); err != nil {
		return res, err
	}
	return res, nil
}
