package main

import (
	"strings"
	"testing"

	"bpsf/internal/sim"
)

// TestValidateDecoderFlag is the table-driven -decoder validation for
// bpsf-figs: every registered name (and the empty no-filter default) is
// accepted, unknown names fail with an error naming the available set (the
// CLI turns that into a non-zero exit via log.Fatal).
func TestValidateDecoderFlag(t *testing.T) {
	cases := []struct {
		name    string
		decoder string
		wantErr bool
	}{
		{"empty-no-filter", "", false},
		{"bp", "bp", false},
		{"bposd", "bposd", false},
		{"bpsf", "bpsf", false},
		{"uf", "uf", false},
		{"windowed", "windowed", false},
		{"unknown", "matching", true},
		{"case-sensitive", "UF", true},
		{"whitespace", " uf", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateDecoder(tc.decoder)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("decoder %q accepted", tc.decoder)
				}
				for _, known := range sim.DecoderNames() {
					if !strings.Contains(err.Error(), known) {
						t.Errorf("error %q does not name available decoder %q", err, known)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecoderFlagMatchesRegistry pins the flag vocabulary to the registry:
// a decoder added to sim.DecoderSpecs must be accepted by this CLI's
// filter.
func TestDecoderFlagMatchesRegistry(t *testing.T) {
	for _, name := range sim.DecoderNames() {
		if err := validateDecoder(name); err != nil {
			t.Errorf("registered decoder %q rejected: %v", name, err)
		}
	}
}
