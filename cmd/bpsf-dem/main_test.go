package main

import (
	"testing"

	"bpsf/internal/sim"
)

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
