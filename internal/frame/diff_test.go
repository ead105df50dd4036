package frame

import (
	"math"
	"testing"

	"bpsf/internal/gf2"
)

// shotStats aggregates the statistics the differential suite compares:
// per-detector fire counts, syndrome-weight first/second moments, and the
// total observable-flip count.
type shotStats struct {
	shots     int
	detFires  []int
	obsFlips  int
	wSum, w2  float64
	weightLog []int // per-shot syndrome weight (chi-square input)
}

func newShotStats(numDets int) *shotStats {
	return &shotStats{detFires: make([]int, numDets)}
}

func (st *shotStats) add(syn, obs gf2.Vec) {
	st.shots++
	w := syn.Weight()
	st.wSum += float64(w)
	st.w2 += float64(w) * float64(w)
	st.weightLog = append(st.weightLog, w)
	for _, d := range syn.Support() {
		st.detFires[d]++
	}
	st.obsFlips += obs.Weight()
}

// collectBatch drains shots from a block sampler through Pack.
func collectBatch(t testing.TB, sample func(*Batch), numDets, numObs, shots int) *shotStats {
	t.Helper()
	st := newShotStats(numDets)
	syn := gf2.NewVec(numDets)
	obs := gf2.NewVec(numObs)
	var b Batch
	var p Packed
	for done := 0; done < shots; {
		sample(&b)
		Pack(&b, &p)
		for s := 0; s < p.Shots() && done < shots; s++ {
			if err := syn.SetBytes(p.Syndrome(s)); err != nil {
				t.Fatal(err)
			}
			if err := obs.SetBytes(p.ObsFlips(s)); err != nil {
				t.Fatal(err)
			}
			st.add(syn, obs)
			done++
		}
	}
	return st
}

func collectScalar(sample func() (gf2.Vec, gf2.Vec), numDets, shots int) *shotStats {
	st := newShotStats(numDets)
	for i := 0; i < shots; i++ {
		syn, obs := sample()
		st.add(syn, obs)
	}
	return st
}

// assertSameStatistics holds two samplers of the same stochastic process to
// statistically identical detector/observable behaviour: per-detector fire
// rates within a 6σ two-sample binomial bound, mean syndrome weight within
// a 6σ Welch bound, and total observable flips within a 6σ Poisson-style
// bound. Seeds are fixed, so the checks are deterministic.
func assertSameStatistics(t *testing.T, label string, a, b *shotStats) {
	t.Helper()
	na, nb := float64(a.shots), float64(b.shots)
	for d := range a.detFires {
		pa := float64(a.detFires[d]) / na
		pb := float64(b.detFires[d]) / nb
		pool := (float64(a.detFires[d]) + float64(b.detFires[d])) / (na + nb)
		bound := 6*math.Sqrt(pool*(1-pool)*(1/na+1/nb)) + 2/na
		if math.Abs(pa-pb) > bound {
			t.Errorf("%s: detector %d fire rate %g vs %g (bound %g)", label, d, pa, pb, bound)
		}
	}
	meanA, meanB := a.wSum/na, b.wSum/nb
	varA := a.w2/na - meanA*meanA
	varB := b.w2/nb - meanB*meanB
	bound := 6*math.Sqrt(varA/na+varB/nb) + 2/na
	if math.Abs(meanA-meanB) > bound {
		t.Errorf("%s: mean syndrome weight %g vs %g (bound %g)", label, meanA, meanB, bound)
	}
	oa, ob := float64(a.obsFlips)/na, float64(b.obsFlips)/nb
	opool := (float64(a.obsFlips) + float64(b.obsFlips)) / (na + nb)
	obound := 6*math.Sqrt(opool*(1/na+1/nb)) + 2/na
	if math.Abs(oa-ob) > obound {
		t.Errorf("%s: observable flip rate %g vs %g (bound %g)", label, oa, ob, obound)
	}
}

// diffCases is the differential table: every code family the decoders see
// (rotated surface, toric, bivariate bicycle), circuit and DEM modes.
var diffCases = []struct {
	code   string
	rounds int
	p      float64
	shots  int
}{
	{"rsurf3", 2, 0.02, 4096},
	{"rsurf5", 2, 0.01, 2048},
	{"toric4", 2, 0.01, 2048},
	{"bb72", 2, 0.005, 2048},
}

// TestBatchScalarDifferential is the batch-vs-scalar differential suite:
// under fixed seeds the word-parallel samplers must reproduce the
// test-only scalar references' detector and observable statistics in both
// modes — circuit-level frame propagation (CircuitSampler vs
// ScalarSampler) and DEM mechanism sampling (DEMSampler vs
// DEMScalarSampler).
func TestBatchScalarDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical differential suite")
	}
	for _, tc := range diffCases {
		tc := tc
		t.Run(tc.code, func(t *testing.T) {
			t.Parallel()
			circ, d := buildMemexp(t, tc.code, tc.rounds)

			t.Run("circuit", func(t *testing.T) {
				batch := NewCircuitSampler(circ, tc.p, 101)
				scalar := NewScalarSampler(circ, tc.p, 202)
				stB := collectBatch(t, batch.SampleBlock, batch.NumDets(), batch.NumObs(), tc.shots)
				stS := collectScalar(scalar.SampleShared, scalar.NumDets(), tc.shots)
				assertSameStatistics(t, tc.code+"/circuit", stB, stS)
			})

			t.Run("dem", func(t *testing.T) {
				batch := NewDEMSampler(d, tc.p, 101)
				scalar := NewDEMScalarSampler(d, tc.p, 202)
				stB := collectBatch(t, batch.SampleBlock, d.NumDets, d.NumObs, tc.shots)
				stS := collectScalar(scalar.SampleShared, d.NumDets, tc.shots)
				assertSameStatistics(t, tc.code+"/dem", stB, stS)
			})

			// cross-mode: the DEM is an exact fault enumeration of the
			// circuit, so circuit-level frame sampling and DEM sampling agree
			// on aggregate statistics too (up to the DEM's independent-
			// mechanism approximation of the exclusive depolarizing channels,
			// far below the 6σ bounds at these rates).
			t.Run("circuit-vs-dem", func(t *testing.T) {
				cb := NewCircuitSampler(circ, tc.p, 303)
				db := NewDEMSampler(d, tc.p, 404)
				stC := collectBatch(t, cb.SampleBlock, cb.NumDets(), cb.NumObs(), tc.shots)
				stD := collectBatch(t, db.SampleBlock, d.NumDets, d.NumObs, tc.shots)
				assertSameStatistics(t, tc.code+"/circuit-vs-dem", stC, stD)
			})
		})
	}
}

// ---- chi-square sanity (satellite: weight distributions at α = 0.01) ----

// chiSquareCritical approximates the upper-α critical value of χ²(dof) via
// the Wilson–Hilferty transform (z = Φ⁻¹(1-α)).
func chiSquareCritical(dof int, z float64) float64 {
	d := float64(dof)
	tcube := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * tcube * tcube * tcube
}

// twoSampleChiSquare bins the two weight logs jointly (tail-merging until
// every pooled expected count is ≥ 5) and returns the two-sample χ²
// statistic and its degrees of freedom.
func twoSampleChiSquare(a, b []int) (stat float64, dof int) {
	max := 0
	for _, w := range append(append([]int(nil), a...), b...) {
		if w > max {
			max = w
		}
	}
	ca := make([]float64, max+1)
	cb := make([]float64, max+1)
	for _, w := range a {
		ca[w]++
	}
	for _, w := range b {
		cb[w]++
	}
	na, nb := float64(len(a)), float64(len(b))
	n := na + nb
	// merge adjacent bins until every bin's smaller expected count is ≥ 5
	threshold := 5 * n / math.Min(na, nb)
	type bin struct{ a, b float64 }
	var bins []bin
	var cur bin
	for w := 0; w <= max; w++ {
		cur.a += ca[w]
		cur.b += cb[w]
		if cur.a+cur.b >= threshold {
			bins = append(bins, cur)
			cur = bin{}
		}
	}
	if cur.a+cur.b > 0 {
		if len(bins) > 0 {
			bins[len(bins)-1].a += cur.a
			bins[len(bins)-1].b += cur.b
		} else {
			bins = append(bins, cur)
		}
	}
	for _, bn := range bins {
		tot := bn.a + bn.b
		ea := tot * na / n
		eb := tot * nb / n
		if ea > 0 {
			stat += (bn.a - ea) * (bn.a - ea) / ea
		}
		if eb > 0 {
			stat += (bn.b - eb) * (bn.b - eb) / eb
		}
	}
	return stat, len(bins) - 1
}

// TestBatchScalarWeightChiSquare: the batch-sampled syndrome-weight
// distribution matches the scalar one at significance α = 1e-2 on the
// 5-round rsurf5 memory experiment (the acceptance configuration), in
// both circuit and DEM modes.
func TestBatchScalarWeightChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical chi-square suite")
	}
	circ, d := buildMemexp(t, "rsurf5", 5)
	const shots = 4096
	const z99 = 2.3263478740 // Φ⁻¹(0.99)

	check := func(label string, wa, wb []int) {
		stat, dof := twoSampleChiSquare(wa, wb)
		if dof < 1 {
			t.Fatalf("%s: degenerate binning (dof=%d)", label, dof)
		}
		crit := chiSquareCritical(dof, z99)
		if stat > crit {
			t.Errorf("%s: χ² = %.2f exceeds critical %.2f (dof %d, α=0.01)", label, stat, crit, dof)
		}
	}

	batch := NewCircuitSampler(circ, 0.003, 11)
	scalar := NewScalarSampler(circ, 0.003, 12)
	stB := collectBatch(t, batch.SampleBlock, batch.NumDets(), batch.NumObs(), shots)
	stS := collectScalar(scalar.SampleShared, scalar.NumDets(), shots)
	check("circuit", stB.weightLog, stS.weightLog)

	dbatch := NewDEMSampler(d, 0.003, 21)
	dscalar := NewDEMScalarSampler(d, 0.003, 22)
	stDB := collectBatch(t, dbatch.SampleBlock, d.NumDets, d.NumObs, shots)
	stDS := collectScalar(dscalar.SampleShared, d.NumDets, shots)
	check("dem", stDB.weightLog, stDS.weightLog)
}
