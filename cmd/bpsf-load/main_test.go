package main

import (
	"strings"
	"testing"

	"bpsf/internal/service"
	"bpsf/internal/sim"
)

// TestBatchFlagValues is the table-driven -batch validation (mirroring the
// -decoder pattern): accepted values select server-side batch sampling or
// client-side sampling of the same shots, anything else fails with an error
// naming the accepted set — the CLI exits non-zero via log.Fatal before
// dialing.
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
		{"16", false, true}, // the old -batch size now lives in -batch-size
		{"On", false, true}, // case-sensitive, like -decoder
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

// TestDecoderFlagMatchesServiceKinds pins this CLI's -decoder vocabulary
// to the service spec kinds.
func TestDecoderFlagMatchesServiceKinds(t *testing.T) {
	for _, kind := range service.SpecKinds() {
		spec := service.Spec{Kind: kind, BPIters: 10, Phi: 2, WMax: 1}
		if err := spec.Validate(); err != nil {
			t.Errorf("service kind %q rejected by Validate: %v", kind, err)
		}
	}
}
