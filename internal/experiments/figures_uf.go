package experiments

import (
	"bpsf/internal/codes"
	"bpsf/internal/sim"
)

// UFvsBPOSD is the matchable-code comparison axis the paper lacks: the
// union-find decoder against BP-OSD and plain BP on the rotated surface
// codes (d = 3, 5) under the code-capacity model. The error-rate grid
// anchors at p = 1e-3 — the acceptance point where UF must stay within 2×
// of BP-OSD — and extends toward the surface-code threshold for signal.
// Not a paper figure; registered as "uf-vs-bposd".
func UFvsBPOSD(o Opts) (FigureResult, error) {
	ps := []float64{0.001, 0.02, 0.05, 0.08}
	if o.Full {
		ps = []float64{0.001, 0.005, 0.01, 0.02, 0.04, 0.06, 0.08, 0.10}
	}
	out := FigureResult{Name: "uf-vs-bposd", Notes: "UF vs BP-OSD on the rotated surface family (not a paper figure)"}
	for _, name := range []string{"rsurf3", "rsurf5"} {
		css, err := codes.Get(name)
		if err != nil {
			return out, err
		}
		specs := []sim.Spec{
			UFSpec(),
			BPOSDSpec(1000, 10),
			BPSpec(1000),
		}
		sub, err := capacitySweep("uf-vs-bposd/"+name, css, specs, ps, o.shots(1000), o)
		if err != nil {
			return out, err
		}
		for i := range sub.Series {
			sub.Series[i].Label = name + " " + sub.Series[i].Label
		}
		for i := range sub.Rows {
			sub.Rows[i].Decoder = name + " " + sub.Rows[i].Decoder
		}
		out.Series = append(out.Series, sub.Series...)
		out.Rows = append(out.Rows, sub.Rows...)
	}
	return out, nil
}
