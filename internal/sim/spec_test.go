package sim_test

import (
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/noise"
	"bpsf/internal/osd"
	"bpsf/internal/sim"
	"bpsf/internal/sparse"
	"bpsf/internal/window"
)

// TestSpecValidateAndLabel is the one label table of the decoder spec. It
// pins every legend label of the golden figure rows and the ",layered",
// ",P=" and "W…C…[…]" forms; cmd/bpsf-load pins its profiles' labels.
// Every valid spec must also build a decoder, and the invalid specs must
// be rejected by Validate and NewDecoder alike.
func TestSpecValidateAndLabel(t *testing.T) {
	layout := window.RowRounds(4) // the rows of specTestH
	for _, tc := range []struct {
		spec sim.Spec
		want string
	}{
		// golden rows (internal/experiments/golden_test.go)
		{sim.Spec{Kind: "bpsf", BPIters: 50, Phi: 8, WMax: 1}, "BP-SF(BP50,wmax=1,phi=8)"},
		{sim.Spec{Kind: "bpsf", BPIters: 100, Phi: 50, WMax: 6, NS: 5}, "BP-SF(BP100,wmax=6,phi=50,ns=5)"},
		{sim.Spec{Kind: "bpsf", BPIters: 100, Phi: 50, WMax: 10, NS: 10}, "BP-SF(BP100,wmax=10,phi=50,ns=10)"},
		{sim.Spec{Kind: "bpsf", BPIters: 50, Phi: 20, WMax: 4, NS: 5}, "BP-SF(BP50,wmax=4,phi=20,ns=5)"},
		{sim.Spec{Kind: "bposd", BPIters: 1000, OSDOrder: 10}, "BP1000-OSD10"},
		{sim.Spec{Kind: "bposd", BPIters: 1000, OSDMethod: osd.OSD0}, "BP1000-OSD0"},
		{sim.Spec{Kind: "bposd", BPIters: 100, OSDOrder: 5}, "BP100-OSD5"},
		{sim.Spec{Kind: "bposd", BPIters: 100, OSDMethod: osd.OSDE, OSDOrder: 6}, "BP100-OSD-E6"},
		{sim.Spec{Kind: "bp", BPIters: 1000}, "BP1000"},
		{sim.Spec{Kind: "uf"}, "UF"},
		{sim.Spec{Kind: "uf", Window: 2, Commit: 1, Layout: layout}, "W2C1[UF]"},
		{sim.Spec{Kind: "uf", Window: 3, Layout: layout}, "W3C1[UF]"},
		{sim.Spec{Kind: "bposd", BPIters: 100, OSDOrder: 5, Window: 2, Commit: 1, Layout: layout}, "W2C1[BP100-OSD5]"},
		{sim.Spec{Kind: "bposd", BPIters: 100, OSDOrder: 5, Window: 3, Commit: 1, Layout: layout}, "W3C1[BP100-OSD5]"},
		// load profiles and service pool keys
		{sim.Spec{Kind: "bp", BPIters: 100}, "BP100"},
		{sim.Spec{Kind: "bp", BPIters: 50}, "BP50"},
		{sim.Spec{Kind: "bposd", BPIters: 100, OSDOrder: 10}, "BP100-OSD10"},
		{sim.Spec{Kind: "bpsf", BPIters: 30, Phi: 12, WMax: 2, NS: 2}, "BP-SF(BP30,wmax=2,phi=12,ns=2)"},
		// schedule, trial lanes and window forms
		{sim.Spec{Kind: "bp", BPIters: 30, Layered: true}, "BP30,layered"},
		{sim.Spec{Kind: "bposd", BPIters: 1000, OSDOrder: 10, Layered: true}, "BP1000-OSD10,layered"},
		{sim.Spec{Kind: "bpsf", BPIters: 100, Phi: 50, WMax: 10, NS: 10, Layered: true}, "BP-SF(BP100,wmax=10,phi=50,ns=10,layered)"},
		{sim.Spec{Kind: "bpsf", BPIters: 50, Phi: 8, WMax: 1, Workers: 4}, "BP-SF(BP50,wmax=1,phi=8,P=4)"},
		{sim.Spec{Kind: "bpsf", BPIters: 100, Phi: 50, WMax: 10, NS: 10, Workers: 8, Layered: true}, "BP-SF(BP100,wmax=10,phi=50,ns=10,P=8,layered)"},
		{sim.Spec{Kind: "bpsf", BPIters: 50, Phi: 8, WMax: 1, Workers: 1}, "BP-SF(BP50,wmax=1,phi=8)"},
		{sim.Spec{Kind: "bp", BPIters: 20, Window: 4, Commit: 2}, "W4C2[BP20]"},
	} {
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("%+v: label %q, want %q", tc.spec, got, tc.want)
		}
		if err := tc.spec.Validate(); err != nil {
			t.Errorf("%s: %v", tc.want, err)
			continue
		}
		if dec, err := tc.spec.NewDecoder(specTestH(t)); err != nil || dec.Name() != tc.want {
			t.Errorf("%s: NewDecoder = %v, %v", tc.want, dec, err)
		}
	}

	for _, bad := range []sim.Spec{
		{Kind: "bp"},                         // no iterations
		{Kind: "bp", BPIters: -5},            // negative iterations
		{Kind: "magic", BPIters: 10},         // unknown kind
		{Kind: "nope"},                       // unknown kind, no tuning
		{Kind: "bpsf", BPIters: 10, WMax: 2}, // no phi
		{Kind: "bpsf", BPIters: 10, Phi: 10}, // no wmax
		{Kind: "bpsf", BPIters: 10, Phi: 10, WMax: 2, NS: -3},
		{Kind: "bposd", BPIters: 10, OSDOrder: -1},
		{Kind: "bpsf", BPIters: 10, Phi: 10, WMax: 2, Workers: -2},
		{Kind: "uf", Window: 2, Commit: 3}, // commit beyond the window
		{Kind: "uf", Window: -1},
	} {
		if bad.Validate() == nil {
			t.Errorf("%+v accepted by Validate", bad)
		}
		if _, err := bad.NewDecoder(specTestH(t)); err == nil {
			t.Errorf("%+v accepted by NewDecoder", bad)
		}
	}
	if got := (sim.Spec{Kind: "weird"}).String(); got != "weird" {
		t.Errorf("fallback label %q, want the kind", got)
	}
}

// TestDecoderNameIsSpecLabel: a decoder's Name() is its spec's label for
// every registered spec and its layered, OSD-0 and OSD-E variants, so
// reports, figure legends and pool keys name a decoder one way, and
// decoders that differ are named apart.
func TestDecoderNameIsSpecLabel(t *testing.T) {
	for name, spec := range sim.DecoderSpecs() {
		layered := spec
		layered.Layered = true
		osd0 := spec
		osd0.OSDMethod, osd0.OSDOrder = osd.OSD0, 0
		osdE := spec
		osdE.OSDMethod = osd.OSDE
		for _, s := range []sim.Spec{spec, layered, osd0, osdE} {
			dec, err := s.NewDecoder(specTestH(t))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if dec.Name() != s.String() {
				t.Errorf("%s: Name() = %q, Spec.String() = %q", name, dec.Name(), s.String())
			}
		}
		if spec.Kind == "bposd" && osdE.String() == spec.String() {
			t.Errorf("%s: OSD-E and OSD-CS share the label %q", name, spec.String())
		}
	}
}

// specTestH is a small decoding problem every registered kind builds on.
func specTestH(t *testing.T) (h *sparse.Mat, priors []float64) {
	t.Helper()
	css, err := codes.RotatedSurface3()
	if err != nil {
		t.Fatal(err)
	}
	return css.HZ, noise.UniformPriors(css.N, 0.01)
}
