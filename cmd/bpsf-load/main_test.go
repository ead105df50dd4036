package main

import (
	"sort"
	"strings"
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/service"
	"bpsf/internal/sim"
)

// TestBatchFlagValues is the table-driven -batch validation (mirroring the
// -decoder pattern): accepted values select server-side batch sampling or
// the retained client-side scalar path, anything else fails with an error
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

// TestProfileFlagValidation is the -profile validation, matching the
// -decoder convention: unknown names make the CLI exit non-zero (via
// log.Fatal on this error) printing the available profile set.
func TestProfileFlagValidation(t *testing.T) {
	if _, err := GetProfile("edge-rsurf5-uf"); err != nil {
		t.Errorf("known profile rejected: %v", err)
	}
	_, err := GetProfile("nope")
	if err == nil {
		t.Fatal("-profile nope accepted")
	}
	for _, name := range ProfileNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not print available profile %q", err, name)
		}
	}
}

// TestGetProfileUnknown: the registry's error for an unknown name
// announces the available set and lists every profile in it.
func TestGetProfileUnknown(t *testing.T) {
	_, err := GetProfile("nope")
	if err == nil {
		t.Fatal("unknown profile accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "known profiles") {
		t.Errorf("error %q does not announce the available set", msg)
	}
	for _, name := range ProfileNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q omits profile %q", msg, name)
		}
	}
}

// TestApplyProfilePrecedence pins the merge rule: every profile field
// lands in its flag unless that flag was set explicitly, in which case
// the explicit value wins.
func TestApplyProfilePrecedence(t *testing.T) {
	prof, err := GetProfile("bulk-bb72-bposd")
	if err != nil {
		t.Fatal(err)
	}
	codeName, decoder, batch, mode := "bb144", "bpsf", "on", "closed"
	rounds, bpIters, osdOrder, phi, wmax, ns := 0, 100, 10, 50, 10, 10
	batchSize, sessions, shots, window, commit := 16, 4, 1000, 0, 1
	p, rate := 0.003, 500.0
	v := profileFlags{
		code: &codeName, rounds: &rounds, p: &p, decoder: &decoder,
		bpIters: &bpIters, osdOrder: &osdOrder, phi: &phi, wmax: &wmax, ns: &ns,
		batch: &batch, batchSize: &batchSize, sessions: &sessions, shots: &shots,
		mode: &mode, rate: &rate, window: &window, commit: &commit,
	}

	explicit := map[string]bool{"shots": true, "p": true}
	shots, p = 9999, 1e-4 // what the user typed
	applyProfile(prof, func(name string) bool { return explicit[name] }, v)

	if codeName != prof.Code || decoder != prof.Spec.Kind || bpIters != prof.Spec.BPIters ||
		osdOrder != prof.Spec.OSDOrder || batchSize != prof.BatchSize || sessions != prof.Sessions ||
		mode != prof.Mode || window != prof.Window {
		t.Errorf("profile fields not applied: code %s decoder %s bp-iters %d osd %d batch-size %d sessions %d mode %s window %d",
			codeName, decoder, bpIters, osdOrder, batchSize, sessions, mode, window)
	}
	if batch != "on" {
		t.Errorf("server-sampled profile set -batch %q, want on", batch)
	}
	if shots != 9999 || p != 1e-4 {
		t.Errorf("explicit flags overridden: shots %d, p %g", shots, p)
	}

	// a streaming profile presets the window/commit plane
	stream, err := GetProfile("stream-rsurf5-uf")
	if err != nil {
		t.Fatal(err)
	}
	applyProfile(stream, func(string) bool { return false }, v)
	if window != stream.Window || commit != stream.Commit || batch != "off" {
		t.Errorf("streaming profile applied window %d commit %d batch %q", window, commit, batch)
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

// TestProfilesAreRunnable validates every registered profile the way the
// CLI consumes it: catalog code, validating decoder spec, sane load
// model, and a batch-plane load config that passes the driver's own
// validation. It also pins each profile's pool-key label: the service
// keys pools, and the fleet routes sessions, by it.
func TestProfilesAreRunnable(t *testing.T) {
	labels := map[string]string{
		"edge-rsurf5-uf":   "UF",
		"bulk-bb72-bposd":  "BP100-OSD10",
		"open-bb72-bp":     "BP100",
		"stream-rsurf5-uf": "UF",
		"ci-smoke":         "BP50",
	}
	profiles := Profiles()
	if len(profiles) != len(labels) {
		t.Errorf("%d profiles, the label table pins %d", len(profiles), len(labels))
	}
	cat := codes.Catalog()
	for name, p := range profiles {
		t.Run(name, func(t *testing.T) {
			if p.Name != name {
				t.Errorf("Name %q != registry key %q", p.Name, name)
			}
			if got := p.Spec.String(); got != labels[name] {
				t.Errorf("label %q, want %q", got, labels[name])
			}
			if p.Description == "" {
				t.Error("empty Description")
			}
			if _, ok := cat[p.Code]; !ok {
				t.Errorf("code %q not in the catalog", p.Code)
			}
			if err := p.Spec.Validate(); err != nil {
				t.Errorf("spec: %v", err)
			}
			if p.Mode != "closed" && p.Mode != "open" {
				t.Errorf("mode %q", p.Mode)
			}
			if p.Mode == "open" && p.Rate <= 0 {
				t.Error("open mode with no rate")
			}
			if p.Sessions <= 0 || p.Shots <= 0 {
				t.Errorf("degenerate load: sessions %d, shots %d", p.Sessions, p.Shots)
			}
			if p.Window < 0 || p.Commit < 0 || (p.Window > 0 && p.Commit > p.Window) {
				t.Errorf("bad window/commit %d/%d", p.Window, p.Commit)
			}
			if p.Window == 0 {
				lc := service.LoadConfig{
					Code: p.Code, Rounds: p.Rounds, P: p.P, Spec: p.Spec,
					Sessions: p.Sessions, Shots: p.Shots, BatchSize: p.BatchSize,
					ServerSample: p.ServerSample,
					Mode:         p.Mode, Rate: p.Rate,
					Seed: 1,
				}
				if _, err := lc.Validate(); err != nil {
					t.Errorf("load config rejected by the driver: %v", err)
				}
			}
		})
	}
}

// TestProfileNamesSorted: the flag help and error listings are stable.
func TestProfileNamesSorted(t *testing.T) {
	names := ProfileNames()
	if !sort.StringsAreSorted(names) {
		t.Errorf("ProfileNames not sorted: %v", names)
	}
	if len(names) != len(Profiles()) {
		t.Errorf("%d names for %d profiles", len(names), len(Profiles()))
	}
}
