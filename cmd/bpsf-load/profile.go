package main

import (
	"fmt"
	"sort"

	"bpsf/internal/service"
)

// Profile is a named workload mix — code × p × decoder × batch/stream
// traffic shape — that -profile replays, so a canonical load is one
// command:
//
//	bpsf-load -addr <srv> -profile <name>
//
// Window > 0 selects the windowed streaming plane.
type Profile struct {
	Name        string
	Description string

	Code   string
	Rounds int // 0 = catalog default
	P      float64
	Spec   service.Spec

	// ServerSample: server-side word-parallel batch sampling (-batch on);
	// otherwise the client samples scalar shots and uploads syndromes.
	ServerSample bool
	Sessions     int
	Shots        int // total syndromes (batch plane) or streams (streaming)
	BatchSize    int

	Mode string  // "closed" | "open"
	Rate float64 // total syndrome arrivals/s (open mode)

	Window, Commit int // streaming plane when Window > 0
}

// Profiles returns the named workload registry behind -profile.
// Additions here are picked up by TestProfilesAreRunnable.
func Profiles() map[string]Profile {
	return map[string]Profile{
		"edge-rsurf5-uf": {
			Name:        "edge-rsurf5-uf",
			Description: "low-latency edge mix: rsurf5 @ p=1e-3 on the UF kernel, closed loop, server-sampled",
			Code:        "rsurf5", P: 1e-3,
			Spec:         service.Spec{Kind: "uf"},
			ServerSample: true,
			Sessions:     2, Shots: 4096, BatchSize: 16,
			Mode: "closed",
		},
		"bulk-bb72-bposd": {
			Name:        "bulk-bb72-bposd",
			Description: "bulk qLDPC mix: bb72 @ p=3e-3 on BP100-OSD10, closed loop, server-sampled",
			Code:        "bb72", P: 3e-3,
			Spec:         service.Spec{Kind: "bposd", BPIters: 100, OSDOrder: 10},
			ServerSample: true,
			Sessions:     4, Shots: 1024, BatchSize: 32,
			Mode: "closed",
		},
		"open-bb72-bp": {
			Name:        "open-bb72-bp",
			Description: "open-loop arrival mix: bb72 @ p=3e-3 on BP100, 2000 syndromes/s, server-sampled",
			Code:        "bb72", P: 3e-3,
			Spec:         service.Spec{Kind: "bp", BPIters: 100},
			ServerSample: true,
			Sessions:     4, Shots: 1024, BatchSize: 16,
			Mode: "open", Rate: 2000,
		},
		"stream-rsurf5-uf": {
			Name:        "stream-rsurf5-uf",
			Description: "windowed streaming mix: rsurf5 @ p=1e-3, W=3 C=1 over the UF kernel",
			Code:        "rsurf5", P: 1e-3,
			Spec:     service.Spec{Kind: "uf"},
			Sessions: 2, Shots: 64,
			Mode:   "closed",
			Window: 3, Commit: 1,
		},
		"ci-smoke": {
			Name:        "ci-smoke",
			Description: "tiny CI loopback mix: bb72 (2 rounds) @ p=3e-3 on BP50, closed loop, server-sampled",
			Code:        "bb72", Rounds: 2, P: 3e-3,
			Spec:         service.Spec{Kind: "bp", BPIters: 50},
			ServerSample: true,
			Sessions:     2, Shots: 256, BatchSize: 16,
			Mode: "closed",
		},
	}
}

// ProfileNames returns the sorted registry keys — the vocabulary of the
// -profile flag.
func ProfileNames() []string {
	reg := Profiles()
	names := make([]string, 0, len(reg))
	for k := range reg {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// GetProfile resolves a profile name; unknown names return an error
// listing the available set, matching the -decoder flag convention.
func GetProfile(name string) (Profile, error) {
	p, ok := Profiles()[name]
	if !ok {
		return Profile{}, fmt.Errorf("unknown profile %q (known profiles: %v)", name, ProfileNames())
	}
	return p, nil
}
