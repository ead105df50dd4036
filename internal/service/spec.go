package service

import (
	"fmt"
	"math"
	"sort"

	"bpsf/internal/osd"
	"bpsf/internal/sim"
)

// Spec selects the decoder behind a session. It is sim.Spec: the same
// Validate, label and NewDecoder the CLIs and figures use. The Hello
// carries Kind, BPIters, OSDOrder, Phi, WMax, NS and Layered; a spec
// setting any other field is refused by the wire (wireKind) rather than
// silently served as a different decoder. Windowed decoding is the
// stream plane's job (StreamOpen's window/commit over any batch kind).
type Spec = sim.Spec

// specKinds maps Kind to its wire byte.
var specKinds = map[string]byte{"bp": 0, "bposd": 1, "bpsf": 2, "uf": 3}

// SpecKinds returns the sorted decoder kind names the service accepts:
// the registry entries of sim.DecoderSpecs without a window.
func SpecKinds() []string {
	var names []string
	for name, s := range sim.DecoderSpecs() {
		if s.Window == 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// wireKind checks that the Hello can carry s exactly and returns its kind
// byte. Fields the wire has no room for, and values outside the uint16 /
// uint32 wire widths, are errors: dropping or truncating them would build
// a different decoder than the caller configured.
func wireKind(s Spec) (byte, error) {
	k, ok := specKinds[s.Kind]
	if !ok {
		return 0, fmt.Errorf("service: unknown decoder kind %q (available: %v)", s.Kind, SpecKinds())
	}
	switch {
	case s.Window != 0 || s.Commit != 0 || s.Layout.NumDets != 0 || len(s.Layout.Starts) != 0:
		return 0, fmt.Errorf("service: the Hello cannot carry Window %d / Commit %d / Layout; open a stream instead", s.Window, s.Commit)
	case s.Workers != 0:
		return 0, fmt.Errorf("service: the Hello cannot carry Workers %d", s.Workers)
	case s.OSDMethod != osd.OSDCS:
		return 0, fmt.Errorf("service: the Hello cannot carry OSDMethod %v (only %v)", s.OSDMethod, osd.OSDCS)
	case s.BPIters < 0 || s.BPIters > math.MaxUint32:
		return 0, fmt.Errorf("service: BPIters %d out of wire range [0, %d]", s.BPIters, uint32(math.MaxUint32))
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"OSDOrder", s.OSDOrder}, {"Phi", s.Phi}, {"WMax", s.WMax}, {"NS", s.NS}} {
		if f.v < 0 || f.v > math.MaxUint16 {
			return 0, fmt.Errorf("service: %s %d out of wire range [0, %d]", f.name, f.v, math.MaxUint16)
		}
	}
	return k, nil
}

// kindFromByte is wireKind's inverse for the kind byte.
func kindFromByte(k byte) (string, error) {
	for name, b := range specKinds {
		if b == k {
			return name, nil
		}
	}
	return "", fmt.Errorf("service: unknown decoder kind byte %d", k)
}

// RequestSeed is the deterministic decoder seed of the index-th syndrome
// of a session opened with streamSeed. The server reseeds the pooled
// decoder with it before every decode, so a stream replayed through the
// service — or through a local decoder reseeded the same way — yields
// byte-identical estimates regardless of pool size, batching or
// interleaving with other sessions.
func RequestSeed(streamSeed int64, index int) int64 {
	return sim.ShardSeed(streamSeed, index)
}

// SampleSeed is the deterministic seed of a session's server-side batch
// frame sampler (msgSample requests): a splitmix stream index outside the
// RequestSeed range, so sampling randomness and decoder randomness never
// collide. Replaying a session's sample requests with the same StreamSeed
// reproduces every sampled syndrome — and through RequestSeed every
// response — byte-identically.
func SampleSeed(streamSeed int64) int64 {
	return sim.ShardSeed(streamSeed, -1)
}
