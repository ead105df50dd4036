package main

import (
	"strings"
	"testing"

	"bpsf/internal/sim"
)

// TestBatchFlagValues is the table-driven -batch validation (mirroring the
// -decoder pattern): accepted values resolve to the batch/scalar sampling
// toggle, anything else fails with an error naming the accepted set — the
// CLI exits non-zero via log.Fatal before building anything.
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
		{"fast", false, true},
		{"OFF", false, true}, // case-sensitive, like -decoder
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

// TestDecoderFlagMatchesRegistry pins the -decoder vocabulary of this CLI
// to the decoder registry: every listed name resolves to a valid spec.
func TestDecoderFlagMatchesRegistry(t *testing.T) {
	for _, name := range sim.DecoderNames() {
		spec, err := sim.DecoderSpec(name)
		if err != nil {
			t.Errorf("registered decoder %q: %v", name, err)
		} else if err := spec.Validate(); err != nil {
			t.Errorf("registered decoder %q: %v", name, err)
		}
	}
}
