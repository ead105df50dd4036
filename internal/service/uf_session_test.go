package service

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"bpsf/internal/sim"
)

// TestSpecKindsMatchConstructorRegistry pins the service's wire kind-byte
// table to the decoder registry: every unwindowed sim.DecoderSpecs entry
// (SpecKinds) must have a wire byte, and every wire byte a registry entry,
// or the CLIs and the service would disagree on the -decoder set. The
// windowed entry is exempt: in the service, windowing is expressed through
// the stream plane (StreamOpen's window/commit over any batch kind), never
// as a batch spec, because a batch spec carries no round layout.
func TestSpecKindsMatchConstructorRegistry(t *testing.T) {
	var want []string
	for _, name := range sim.DecoderNames() {
		if name != "windowed" {
			want = append(want, name)
		}
	}
	if got := SpecKinds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("service.SpecKinds() = %v, want sim.DecoderNames() minus the windowed wrapper = %v", got, want)
	}
	var wire []string
	for name := range specKinds {
		wire = append(wire, name)
	}
	sort.Strings(wire)
	if !reflect.DeepEqual(wire, want) {
		t.Fatalf("wire kind bytes cover %v, want %v; keep specKinds and sim.DecoderSpecs in sync", wire, want)
	}
}

// TestUFSessionMatchesDirectDecode runs a union-find session end to end on
// a surface-code DEM, coexisting with a BP pool on the same server, and
// checks the responses against direct library decodes (the determinism
// contract is trivial for UF — no randomness — but the wire path, pool
// keying and estimate packing are not).
func TestUFSessionMatchesDirectDecode(t *testing.T) {
	s := startServer(t, Options{PoolSize: 2, MaxBatch: 4})
	ufHello := Hello{
		Code:       "rsurf3",
		Rounds:     2,
		P:          0.01,
		StreamSeed: 99,
		Spec:       Spec{Kind: "uf"},
	}
	bpHello := Hello{
		Code:       "rsurf3",
		Rounds:     2,
		P:          0.01,
		StreamSeed: 99,
		Spec:       Spec{Kind: "bp", BPIters: 50},
	}

	syndromes := sampleSyndromes(t, s, ufHello, 32, 3)
	want := directResponses(t, s, ufHello, syndromes)

	// the BP session first, so the UF pool is provably a second pool on
	// the same (code, rounds, p) rather than a relabeled shared one
	bc, err := Dial(s.Addr().String(), bpHello)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if _, err := bc.Decode(syndromes[:4]); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(s.Addr().String(), ufHello)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Decode(syndromes)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstDirect(got, want, "uf session"); err != nil {
		t.Fatal(err)
	}

	pools := s.Stats()
	if len(pools) != 2 {
		t.Fatalf("%d pools, want 2 (UF + BP)", len(pools))
	}
	seen := map[string]bool{}
	for _, st := range pools {
		switch {
		case strings.HasSuffix(st.Pool, "/UF"):
			seen["uf"] = true
		case strings.HasSuffix(st.Pool, "/BP50"):
			seen["bp"] = true
		}
	}
	if !seen["uf"] || !seen["bp"] {
		t.Fatalf("pool keys missing UF/BP pools: %+v", pools)
	}
}

// TestAllowedKindsRejectsSession checks the bpsf-serve -decoders
// allowlist: a server restricted to bp must refuse a uf session at Hello
// time.
func TestAllowedKindsRejectsSession(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1, AllowedKinds: []string{"bp"}})
	_, err := Dial(s.Addr().String(), Hello{
		Code: "rsurf3", Rounds: 2, P: 0.01, Spec: Spec{Kind: "uf"},
	})
	if err == nil || !strings.Contains(err.Error(), "not served here") {
		t.Fatalf("expected allowlist rejection, got %v", err)
	}
	// the allowed kind still works
	c, err := Dial(s.Addr().String(), Hello{
		Code: "rsurf3", Rounds: 2, P: 0.01, Spec: Spec{Kind: "bp", BPIters: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
