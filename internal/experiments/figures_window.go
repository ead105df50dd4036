package experiments

import (
	"fmt"

	"bpsf/internal/codes"
	"bpsf/internal/sim"
	"bpsf/internal/window"
)

// WindowAccuracy sweeps the sliding-window size W against whole-history
// decoding under circuit-level noise: for each code, the UF and BP-OSD
// inner decoders run bare and wrapped at (W, C=1) for W in the sweep, over
// the memory-experiment round layout. The grid anchors at p = 1e-3 — the
// acceptance point where windowed (W=3, C=1) decoding must stay within 2×
// of whole-history for both inners on rsurf5. Not a paper figure;
// registered as "window-accuracy".
func WindowAccuracy(o Opts) (FigureResult, error) {
	ps := []float64{0.001, 0.003}
	windows := []int{2, 3}
	if o.Full {
		ps = []float64{0.001, 0.002, 0.003, 0.005}
		windows = []int{2, 3, 4}
	}
	out := FigureResult{
		Name:  "window-accuracy",
		Notes: "windowed (W,C=1) vs whole-history decoding, memory-experiment layout (not a paper figure)",
	}
	grids := []struct {
		code        string
		quickRounds int
	}{
		{"rsurf5", 4},
		{"bb72", 3},
	}
	for _, g := range grids {
		rounds := roundsFor(g.code, g.quickRounds, o)
		css, err := codes.Get(g.code)
		if err != nil {
			return out, err
		}
		layout := window.MemexpLayout(css, rounds)
		inners := []sim.Spec{UFSpec(), BPOSDSpec(100, 5)}
		var specs []sim.Spec
		for _, inner := range inners {
			specs = append(specs, inner)
			for _, w := range windows {
				specs = append(specs, Windowed(inner, w, 1, layout))
			}
		}
		sub, err := circuitSweep("window-accuracy/"+g.code, g.code, g.quickRounds, specs, ps, o.shots(40), o)
		if err != nil {
			return out, err
		}
		for i := range sub.Series {
			sub.Series[i].Label = g.code + " " + sub.Series[i].Label
		}
		for i := range sub.Rows {
			sub.Rows[i].Decoder = g.code + " " + sub.Rows[i].Decoder
		}
		out.Series = append(out.Series, sub.Series...)
		out.Rows = append(out.Rows, sub.Rows...)
		if sub.Notes != "" {
			out.Notes += fmt.Sprintf("; %s: %s", g.code, sub.Notes)
		}
	}
	return out, nil
}
