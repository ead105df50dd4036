package main

import (
	"math"
	"strings"
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/noise"
	"bpsf/internal/sim"
)

// TestDecoderFactoryFlags is the table-driven -decoder validation: every
// registered name resolves to a valid spec that builds, unknown names fail
// with an error naming the available set, and out-of-range tuning flags
// fail with an error naming the field — all before any shard starts (the
// CLI turns the error into a non-zero exit via log.Fatal).
func TestDecoderFactoryFlags(t *testing.T) {
	base := sim.Spec{BPIters: 20, OSDOrder: 2, Phi: 4, WMax: 1, NS: 0}
	cases := []struct {
		name    string
		decoder string
		window  int
		commit  int
		p       float64         // -p
		edit    func(*sim.Spec) // further flag values (nil = base)
		wantErr string          // substring of the expected error ("" = accepted)
	}{
		{"bp", "bp", 0, 0, 0.01, nil, ""},
		{"bposd", "bposd", 0, 0, 0.01, nil, ""},
		{"bpsf", "bpsf", 0, 0, 0.01, nil, ""},
		{"bpsf-trial-workers", "bpsf", 0, 0, 0.01, func(s *sim.Spec) { s.Workers = 4 }, ""},
		{"uf", "uf", 0, 0, 0.01, nil, ""},
		{"windowed-default", "windowed", 0, 0, 0.01, nil, ""},
		{"windowed-explicit", "windowed", 4, 2, 0.01, nil, ""},
		{"uf-windowed", "uf", 3, 1, 0.01, nil, ""},
		{"bp-windowed", "bp", 2, 2, 0.01, nil, ""},
		{"commit-exceeds-window", "uf", 2, 3, 0.01, nil, "Commit 3 exceeds Window 2"},
		{"unknown", "matching", 0, 0, 0.01, nil, "available"},
		{"empty", "", 0, 0, 0.01, nil, "available"},
		{"case-sensitive", "UF", 0, 0, 0.01, nil, "available"},
		{"negative-trial-workers", "bpsf", 0, 0, 0.01, func(s *sim.Spec) { s.Workers = -2 }, "Workers -2"},
		{"osd-order-negative", "bposd", 0, 0, 0.01, func(s *sim.Spec) { s.OSDOrder = -1 }, "OSDOrder"},
		{"bp-iters-zero", "bp", 0, 0, 0.01, func(s *sim.Spec) { s.BPIters = 0 }, "BPIters"},
		{"bp-iters-negative", "bp", 0, 0, 0.01, func(s *sim.Spec) { s.BPIters = -5 }, "BPIters"},
		{"phi-zero", "bpsf", 0, 0, 0.01, func(s *sim.Spec) { s.Phi = 0 }, "Phi"},
		{"ns-negative", "bpsf", 0, 0, 0.01, func(s *sim.Spec) { s.NS = -3 }, "NS"},
		{"p-nan", "bp", 0, 0, math.NaN(), nil, "physical error rate NaN"},
		{"p-negative", "bp", 0, 0, -0.1, nil, "physical error rate -0.1"},
		{"p-above-one", "bp", 0, 0, 1.5, nil, "physical error rate 1.5"},
	}
	css, err := codes.RotatedSurface3()
	if err != nil {
		t.Fatal(err)
	}
	priors := noise.UniformPriors(css.N, 0.01)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base
			f.Window, f.Commit = tc.window, tc.commit
			if tc.edit != nil {
				tc.edit(&f)
			}
			spec, err := resolveFlags(tc.p, tc.decoder, f)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("decoder %q with %+v accepted", tc.decoder, f)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("error %q does not name %q", err, tc.wantErr)
				}
				if tc.wantErr == "available" {
					for _, known := range sim.DecoderNames() {
						if !strings.Contains(err.Error(), known) {
							t.Errorf("error %q does not name available decoder %q", err, known)
						}
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			dec, err := spec.NewDecoder(css.HZ, priors)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Name() == "" {
				t.Error("empty decoder name")
			}
		})
	}
}

// TestDecoderFlagsMatchRegistry pins the flag vocabulary to the registry:
// a decoder added to sim.DecoderSpecs must be reachable from the CLI.
func TestDecoderFlagsMatchRegistry(t *testing.T) {
	for _, name := range sim.DecoderNames() {
		if _, err := sim.FlagSpec(name, sim.Spec{BPIters: 10, Phi: 2, WMax: 1}); err != nil {
			t.Errorf("registered decoder %q rejected: %v", name, err)
		}
	}
}
