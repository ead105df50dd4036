package sim

import (
	"fmt"
	"testing"

	"bpsf/internal/bp"
	"bpsf/internal/bpsf"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/memexp"
	"bpsf/internal/osd"
	"bpsf/internal/sparse"
)

func TestShardSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for shard := 0; shard < 1000; shard++ {
		s := ShardSeed(42, shard)
		if seen[s] {
			t.Fatalf("shard %d repeats seed %d", shard, s)
		}
		seen[s] = true
	}
	if ShardSeed(1, 0) == ShardSeed(2, 0) {
		t.Fatal("different run seeds must give different shard seeds")
	}
	if ShardSeed(7, 3) != ShardSeed(7, 3) {
		t.Fatal("ShardSeed must be deterministic")
	}
}

func TestShardQuotaCoversAllShots(t *testing.T) {
	for _, tc := range []struct{ shots, shards int }{
		{100, 7}, {5, 5}, {1, 1}, {64, 64}, {1000, 64}, {3, 2},
	} {
		total := 0
		for i := 0; i < tc.shards; i++ {
			q := shardQuota(tc.shots, tc.shards, i)
			if q < 0 {
				t.Fatalf("negative quota for %+v", tc)
			}
			total += q
		}
		if total != tc.shots {
			t.Fatalf("quotas sum to %d, want %d (%+v)", total, tc.shots, tc)
		}
	}
}

func TestConfigShardsIndependentOfWorkers(t *testing.T) {
	a := Config{Shots: 500, Workers: 1}
	b := Config{Shots: 500, Workers: 16}
	if a.shards() != b.shards() {
		t.Fatal("shard count must not depend on Workers")
	}
	if (Config{Shots: 500, Shards: 3}).shards() != 3 {
		t.Fatal("explicit Shards override ignored")
	}
	if (Config{Shots: 0}).shards() != 1 {
		t.Fatal("zero shots should still produce one shard")
	}
}

// recordsEqual compares two records ignoring wall-clock fields (Time and
// PostTime vary run to run; everything else must be bit-identical).
func recordsEqual(a, b Record) bool {
	if a.Failed != b.Failed || a.PostUsed != b.PostUsed ||
		a.Iterations != b.Iterations ||
		a.InitIterations != b.InitIterations ||
		len(a.TrialIterations) != len(b.TrialIterations) ||
		len(a.TrialSuccess) != len(b.TrialSuccess) {
		return false
	}
	for i := range a.TrialIterations {
		if a.TrialIterations[i] != b.TrialIterations[i] {
			return false
		}
	}
	for i := range a.TrialSuccess {
		if a.TrialSuccess[i] != b.TrialSuccess[i] {
			return false
		}
	}
	return true
}

func assertRunsIdentical(t *testing.T, label string, base, got *Result) {
	t.Helper()
	if got.Failures != base.Failures {
		t.Fatalf("%s: Failures = %d, want %d", label, got.Failures, base.Failures)
	}
	if got.LER != base.LER {
		t.Fatalf("%s: LER = %v, want %v", label, got.LER, base.LER)
	}
	if got.Shots != base.Shots {
		t.Fatalf("%s: Shots = %d, want %d", label, got.Shots, base.Shots)
	}
	if got.AvgIters != base.AvgIters {
		t.Fatalf("%s: AvgIters = %v, want %v", label, got.AvgIters, base.AvgIters)
	}
	if got.PostUsed != base.PostUsed {
		t.Fatalf("%s: PostUsed = %d, want %d", label, got.PostUsed, base.PostUsed)
	}
	if len(got.Records) != len(base.Records) {
		t.Fatalf("%s: %d records, want %d", label, len(got.Records), len(base.Records))
	}
	for i := range got.Records {
		if !recordsEqual(got.Records[i], base.Records[i]) {
			t.Fatalf("%s: record %d differs: %+v vs %+v", label, i, got.Records[i], base.Records[i])
		}
	}
}

// TestRunCapacityWorkerInvariance is the engine's determinism contract:
// identical Failures, LER and per-shot Record ordering for any worker
// count, across all three decoder families.
func TestRunCapacityWorkerInvariance(t *testing.T) {
	css, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]Factory{
		"bp": func(h *sparse.Mat, priors []float64) (Decoder, error) {
			return NewBP(h, priors, bp.Config{MaxIter: 40}), nil
		},
		"bposd": func(h *sparse.Mat, priors []float64) (Decoder, error) {
			return NewBPOSD(h, priors, bp.Config{MaxIter: 40},
				osd.Config{Method: osd.OSDCS, Order: 2}), nil
		},
		"bpsf": func(h *sparse.Mat, priors []float64) (Decoder, error) {
			return NewBPSF(h, priors, bpsf.Config{
				Init:    bp.Config{MaxIter: 40},
				PhiSize: 4, WMax: 2, Policy: bpsf.Exhaustive,
			})
		},
		"bpsf-sampled": func(h *sparse.Mat, priors []float64) (Decoder, error) {
			return NewBPSF(h, priors, bpsf.Config{
				Init:    bp.Config{MaxIter: 40},
				PhiSize: 6, WMax: 2, NS: 4, Policy: bpsf.Sampled,
			})
		},
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			cfg := Config{P: 0.06, Shots: 96, Seed: 7, KeepRecords: true, Workers: 1}
			base, err := RunCapacity(css, mk, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if base.Shots != 96 {
				t.Fatalf("baseline ran %d shots", base.Shots)
			}
			for _, workers := range []int{2, 8} {
				cfg.Workers = workers
				got, err := RunCapacity(css, mk, cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertRunsIdentical(t, fmt.Sprintf("%s workers=%d", name, workers), base, got)
			}
		})
	}
}

// TestRunCircuitWorkerInvariance covers the circuit-level path, including
// the stochastic (Sampled) BP-SF trial stream, which must reseed per shard.
func TestRunCircuitWorkerInvariance(t *testing.T) {
	css, err := codes.Surface(3)
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
	mk := func(h *sparse.Mat, priors []float64) (Decoder, error) {
		return NewBPSF(h, priors, bpsf.Config{
			Init:    bp.Config{MaxIter: 30},
			Trial:   bp.Config{MaxIter: 30},
			PhiSize: 8, WMax: 2, NS: 3, Policy: bpsf.Sampled,
		})
	}
	cfg := Config{P: 0.01, Shots: 80, Seed: 13, KeepRecords: true, Workers: 1}
	base, err := RunCircuit(d, 2, mk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		cfg.Workers = workers
		got, err := RunCircuit(d, 2, mk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertRunsIdentical(t, fmt.Sprintf("workers=%d", workers), base, got)
	}
}

// TestEarlyStopParallel exercises the shared-atomic early-stop path under
// many workers (run with -race in CI): the run must collect at least
// MaxLogicalErrors failures and stop well short of the full shot budget.
func TestEarlyStopParallel(t *testing.T) {
	css, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(h *sparse.Mat, priors []float64) (Decoder, error) {
		return NewBP(h, priors, bp.Config{MaxIter: 3}), nil
	}
	for _, workers := range []int{1, 4, 16} {
		res, err := RunCapacity(css, mk, Config{
			P: 0.15, Shots: 20000, Seed: 3, MaxLogicalErrors: 8, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures < 8 {
			t.Fatalf("workers=%d: early stop with only %d failures", workers, res.Failures)
		}
		if res.Shots >= 20000 {
			t.Fatalf("workers=%d: early stop did not stop (%d shots)", workers, res.Shots)
		}
	}
}

// TestRunPropagatesFactoryError ensures a decoder-construction failure in
// any shard surfaces as the run's error.
func TestRunPropagatesFactoryError(t *testing.T) {
	css, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("factory exploded")
	mk := func(h *sparse.Mat, priors []float64) (Decoder, error) { return nil, boom }
	if _, err := RunCapacity(css, mk, Config{P: 0.01, Shots: 50, Seed: 1, Workers: 4}); err == nil {
		t.Fatal("factory error swallowed")
	}
}

// TestReseedForwarding checks the Reseeder plumbing end to end: two shards
// with different seeds must reseed the BP-SF trial RNG differently, and a
// non-Reseeder decoder must pass through Reseed unharmed.
func TestReseedForwarding(t *testing.T) {
	css, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewBPSF(css.HZ, uniformPriors(css.N, 0.02), bpsf.Config{
		Init: bp.Config{MaxIter: 10}, PhiSize: 4, WMax: 1, NS: 2, Policy: bpsf.Sampled,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dec.(Reseeder); !ok {
		t.Fatal("BP-SF adapter must implement Reseeder")
	}
	Reseed(dec, 99) // must not panic
	bpDec := NewBP(css.HZ, uniformPriors(css.N, 0.02), bp.Config{MaxIter: 10})
	Reseed(bpDec, 99) // no-op on non-Reseeder
}

// TestNoSpuriousEarlyStop verifies the atomic counter is only advanced by
// genuine failures: a run with zero failures must never early-stop.
func TestNoSpuriousEarlyStop(t *testing.T) {
	css, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(h *sparse.Mat, priors []float64) (Decoder, error) {
		return NewBP(h, priors, bp.Config{MaxIter: 50}), nil
	}
	res, err := RunCapacity(css, mk, Config{
		P: 0.0005, Shots: 200, Seed: 5, MaxLogicalErrors: 1, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 && res.Shots != 200 {
		t.Fatalf("run stopped at %d shots without any failure", res.Shots)
	}
}

func uniformPriors(n int, p float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = p
	}
	return out
}
