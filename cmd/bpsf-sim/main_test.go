package main

import (
	"strings"
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/noise"
	"bpsf/internal/sim"
)

// TestDecoderFactoryFlags is the table-driven -decoder validation: every
// registered name resolves to a working factory, unknown names fail with
// an error naming the available set (the CLI turns that into a non-zero
// exit via log.Fatal).
func TestDecoderFactoryFlags(t *testing.T) {
	base := decoderFlags{BPIters: 20, OSDOrder: 2, Phi: 4, WMax: 1, NS: 0, Seed: 1}
	cases := []struct {
		name    string
		decoder string
		window  int
		commit  int
		workers int // -trial-workers
		wantErr bool
	}{
		{"bp", "bp", 0, 0, 0, false},
		{"bposd", "bposd", 0, 0, 0, false},
		{"bpsf", "bpsf", 0, 0, 0, false},
		{"bpsf-trial-workers", "bpsf", 0, 0, 4, false},
		{"uf", "uf", 0, 0, 0, false},
		{"windowed-default", "windowed", 0, 0, 0, false},
		{"windowed-explicit", "windowed", 4, 2, 0, false},
		{"uf-windowed", "uf", 3, 1, 0, false},
		{"bp-windowed", "bp", 2, 2, 0, false},
		{"commit-exceeds-window", "uf", 2, 3, 0, true},
		{"unknown", "matching", 0, 0, 0, true},
		{"empty", "", 0, 0, 0, true},
		{"case-sensitive", "UF", 0, 0, 0, true},
		{"negative-trial-workers", "bpsf", 0, 0, -2, true},
	}
	css, err := codes.RotatedSurface3()
	if err != nil {
		t.Fatal(err)
	}
	priors := noise.UniformPriors(css.N, 0.01)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := base
			f.Name = tc.decoder
			f.Window = tc.window
			f.Commit = tc.commit
			f.TrialWorkers = tc.workers
			mk, err := decoderFactory(f)
			if tc.workers < 0 {
				// the factory builds lazily: the decoder itself rejects it
				if err != nil {
					t.Fatal(err)
				}
				if _, err := mk(css.HZ, priors); err == nil || !strings.Contains(err.Error(), "-2") {
					t.Fatalf("-trial-workers %d: got error %v, want one naming the value", tc.workers, err)
				}
				return
			}
			if tc.wantErr {
				if err == nil {
					t.Fatalf("decoder %q (window=%d commit=%d) accepted", tc.decoder, tc.window, tc.commit)
				}
				if tc.window == 0 || tc.commit <= tc.window {
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
			dec, err := mk(css.HZ, priors)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Name() == "" {
				t.Error("empty decoder name")
			}
		})
	}
}

// TestBatchFlagValues is the table-driven -batch validation: accepted
// values resolve to the batch/scalar toggle, anything else fails with an
// error naming the accepted set (the CLI exits non-zero via log.Fatal
// before any work runs).
func TestBatchFlagValues(t *testing.T) {
	cases := []struct {
		value   string
		want    bool
		wantErr bool
	}{
		{"on", true, false},
		{"off", false, false},
		{"true", true, false},
		{"false", false, false},
		{"1", true, false},
		{"0", false, false},
		{"", false, true},
		{"banana", false, true},
		{"ON", false, true}, // case-sensitive, like -decoder
		{"64", false, true},
	}
	for _, tc := range cases {
		t.Run("value="+tc.value, func(t *testing.T) {
			got, err := sim.ParseBatchFlag(tc.value)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("-batch %q accepted", tc.value)
				}
				if !strings.Contains(err.Error(), "on|off") {
					t.Errorf("error %q does not print the accepted set", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("-batch %q = %v, want %v", tc.value, got, tc.want)
			}
		})
	}
}

// TestDecoderFlagsMatchRegistry pins the flag vocabulary to the registry:
// a decoder added to sim.Constructors must be reachable from the CLI.
func TestDecoderFlagsMatchRegistry(t *testing.T) {
	for _, name := range sim.DecoderNames() {
		if _, err := decoderFactory(decoderFlags{Name: name, BPIters: 10, Phi: 2, WMax: 1}); err != nil {
			t.Errorf("registered decoder %q rejected: %v", name, err)
		}
	}
}
