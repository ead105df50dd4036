package experiments

import (
	"bytes"
	"strings"
	"testing"

	"bpsf/internal/osd"
	"bpsf/internal/sim"
)

func TestSpecLabels(t *testing.T) {
	if BPSpec(1000).String() != "BP1000" {
		t.Fatal("BP label wrong")
	}
	if BPOSDSpec(1000, 10).String() != "BP1000-OSD10" {
		t.Fatal("BP-OSD label wrong")
	}
	l := BPSFCircuitSpec(100, 50, 10, 10).String()
	if !strings.Contains(l, "wmax=10") || !strings.Contains(l, "ns=10") {
		t.Fatalf("BP-SF label %q", l)
	}
	s := BPSFCapacitySpec(50, 8, 1)
	s.Workers = 4
	if !strings.Contains(s.String(), "P=4") {
		t.Fatal("workers missing from label")
	}
	if (sim.Spec{Kind: "weird"}).String() != "weird" {
		t.Fatal("fallback label wrong")
	}
}

func TestSpecFactoryKinds(t *testing.T) {
	// build against a small circuit-level problem
	d, _, err := CachedDEM("bb72", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sim.Spec{
		BPSpec(10),
		BPOSDSpec(10, 2),
		BPSFCapacitySpec(10, 4, 1),
		{Kind: "bp", BPIters: 10, Layered: true},
		{Kind: "bposd", BPIters: 10, OSDMethod: osd.OSD0},
	} {
		dec, err := s.NewDecoder(d.H, uniform(d.NumMechs(), 0.01))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if dec.Name() == "" {
			t.Fatal("empty decoder name")
		}
	}
	if _, err := (sim.Spec{Kind: "nope"}).NewDecoder(d.H, uniform(d.NumMechs(), 0.01)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func uniform(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p
	}
	return out
}

func TestCachedDEMReuses(t *testing.T) {
	a, _, err := CachedDEM("bb72", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := CachedDEM("bb72", 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache miss on identical key")
	}
	if _, _, err := CachedDEM("bogus", 1); err == nil {
		t.Fatal("bogus code cached")
	}
}

func TestRegistryComplete(t *testing.T) {
	// every experiment in DESIGN.md §2 must be registered
	want := []string{
		"fig02", "fig03", "fig05", "fig06", "fig07", "fig08", "fig09",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17a", "fig17b", "fig17c", "table1", "table2", "table3",
		"ablation-damping", "ablation-trials", "ablation-first-success",
		"ablation-variant", "service-latency", "uf-vs-bposd",
		"window-accuracy",
	}
	reg := Registry()
	for _, name := range want {
		if reg[name] == nil {
			t.Fatalf("experiment %q missing from registry", name)
		}
	}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	if len(Names()) != len(want) {
		t.Fatal("Names() inconsistent")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Opts{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestConstructionTablesRun(t *testing.T) {
	var buf bytes.Buffer
	res, err := Run("table2", Opts{Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 || !strings.Contains(buf.String(), "BB [[144,12,12]]") {
		t.Fatalf("table2 output wrong:\n%s", buf.String())
	}
	res, err = Run("table3", Opts{Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatal("table3 series wrong")
	}
}

func TestCapacitySweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo smoke test skipped in -short")
	}
	var buf bytes.Buffer
	res, err := Fig5(Opts{Shots: 30, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("fig05 series = %d, want 4", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.X) == 0 {
			t.Fatal("empty series")
		}
	}
	if !strings.Contains(buf.String(), "BP1000-OSD10") {
		t.Fatal("table output missing decoder rows")
	}
}

func TestServiceLatencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback service harness skipped in -short")
	}
	var buf bytes.Buffer
	res, err := Run("service-latency", Opts{Shots: 24, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("service-latency series = %d, want 3", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.X) != 2 { // quick scale measures pool sizes 1 and 2
			t.Fatalf("series %q has %d points, want 2", s.Label, len(s.X))
		}
	}
	if !strings.Contains(buf.String(), "pool size") {
		t.Fatalf("missing report table:\n%s", buf.String())
	}
}

func TestOptsDefaults(t *testing.T) {
	o := Opts{}
	if o.shots(123) != 123 || o.seed() == 0 {
		t.Fatal("defaults wrong")
	}
	o.Shots = 5
	o.Seed = 9
	if o.shots(123) != 5 || o.seed() != 9 {
		t.Fatal("overrides ignored")
	}
	if o.out() == nil {
		t.Fatal("nil writer")
	}
}

func TestRoundsFor(t *testing.T) {
	if roundsFor("bb144", 4, Opts{}) != 4 {
		t.Fatal("quick rounds wrong")
	}
	if roundsFor("bb144", 4, Opts{Full: true}) != 12 {
		t.Fatal("full rounds wrong")
	}
}
