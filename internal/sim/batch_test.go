package sim

import (
	"math"
	"testing"

	"bpsf/internal/circuit"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/memexp"
)

// batchTestModel builds the rsurf3 2-round memory-experiment circuit and
// DEM once per test.
func batchTestModel(t testing.TB) (*circuit.Circuit, *dem.DEM) {
	t.Helper()
	css, err := codes.Get("rsurf3")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(css, 2, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	d, err := dem.Extract(circ)
	if err != nil {
		t.Fatal(err)
	}
	return circ, d
}

// TestRunCircuitFramesWorkerInvariance: the circuit-level frame sampling
// path (bpsf-sim's default circuit model) keeps worker-count invariance
// and run-to-run determinism.
func TestRunCircuitFramesWorkerInvariance(t *testing.T) {
	circ, d := batchTestModel(t)
	mk := DecoderSpecs()["uf"].NewDecoder
	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		cfg := Config{P: 0.02, Shots: 500, Seed: 5, Workers: workers}
		res, err := RunCircuitFrames(circ, d, 2, mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Shots != ref.Shots || res.Failures != ref.Failures ||
			res.LER != ref.LER || res.AvgIters != ref.AvgIters {
			t.Errorf("workers=%d: (shots=%d failures=%d ler=%g iters=%g) != workers=1 (%d %d %g %g)",
				workers, res.Shots, res.Failures, res.LER, res.AvgIters,
				ref.Shots, ref.Failures, ref.LER, ref.AvgIters)
		}
	}
}

// TestRunCircuitFramesMatchesDEMRate: circuit-level frame sampling and
// DEM sampling estimate statistically indistinguishable logical error
// rates (6σ binomial bound under fixed seeds); a geometry mismatch
// between circuit and DEM is rejected.
func TestRunCircuitFramesMatchesDEMRate(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical equivalence run")
	}
	circ, d := batchTestModel(t)
	mk := DecoderSpecs()["uf"].NewDecoder
	const shots = 6000
	frames, err := RunCircuitFrames(circ, d, 2, mk, Config{P: 0.02, Shots: shots, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	demRun, err := RunCircuit(d, 2, mk, Config{P: 0.02, Shots: shots, Seed: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pool := float64(frames.Failures+demRun.Failures) / float64(2*shots)
	bound := 6*math.Sqrt(pool*(1-pool)*2/float64(shots)) + 2/float64(shots)
	if diff := math.Abs(frames.LER - demRun.LER); diff > bound {
		t.Errorf("frames LER %g vs DEM LER %g differ by %g (bound %g)",
			frames.LER, demRun.LER, diff, bound)
	}
	if frames.Failures == 0 {
		t.Error("no failures at p=0.02 over 6000 shots: frame sampling suspiciously quiet")
	}

	other := circuit.New(2)
	other.R(0)
	if _, err := RunCircuitFrames(other, d, 2, mk, Config{P: 0.02, Shots: 10}); err == nil {
		t.Error("mismatched circuit/DEM geometry accepted")
	}
}

// TestRunCircuitFramesShardDeterminism: equal (Seed, Shots) give
// bit-identical frame-path results across runs; a different seed diverges
// in the sampled stream (asserted via the aggregate iteration average,
// which is sensitive to every syndrome).
func TestRunCircuitFramesShardDeterminism(t *testing.T) {
	circ, d := batchTestModel(t)
	mk := DecoderSpecs()["bp"].NewDecoder
	cfg := Config{P: 0.03, Shots: 320, Seed: 11, Workers: 2}
	a, err := RunCircuitFrames(circ, d, 2, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCircuitFrames(circ, d, 2, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.AvgIters != b.AvgIters || a.PostUsed != b.PostUsed {
		t.Errorf("identical configs diverged: (%d, %g, %d) vs (%d, %g, %d)",
			a.Failures, a.AvgIters, a.PostUsed, b.Failures, b.AvgIters, b.PostUsed)
	}
	cfg.Seed = 12
	c, err := RunCircuitFrames(circ, d, 2, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.AvgIters == a.AvgIters && c.Failures == a.Failures {
		t.Error("different seeds produced identical aggregates (sampler seed unused?)")
	}
}

// TestRunCircuitFramesEarlyStop: MaxLogicalErrors propagates through the
// frame path (the failure budget is checked at shot granularity inside a
// block).
func TestRunCircuitFramesEarlyStop(t *testing.T) {
	circ, d := batchTestModel(t)
	mk := DecoderSpecs()["uf"].NewDecoder
	cfg := Config{P: 0.05, Shots: 20000, Seed: 1, MaxLogicalErrors: 5, Workers: 1}
	res, err := RunCircuitFrames(circ, d, 2, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures < 5 {
		t.Errorf("early stop returned %d failures, want ≥ 5", res.Failures)
	}
	if res.Shots == 20000 {
		t.Error("early stop executed the full shot budget")
	}
}

// TestParseBatchFlag is the -batch value table shared by the CLI flag
// validation tests.
func TestParseBatchFlag(t *testing.T) {
	cases := []struct {
		v       string
		want    bool
		wantErr bool
	}{
		{"on", true, false},
		{"true", true, false},
		{"1", true, false},
		{"off", false, false},
		{"false", false, false},
		{"0", false, false},
		{"", false, true},
		{"yes", false, true},
		{"ON", false, true},
		{"64", false, true},
	}
	for _, tc := range cases {
		got, err := ParseBatchFlag(tc.v)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseBatchFlag(%q) accepted", tc.v)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBatchFlag(%q): %v", tc.v, err)
		} else if got != tc.want {
			t.Errorf("ParseBatchFlag(%q) = %v, want %v", tc.v, got, tc.want)
		}
	}
}
