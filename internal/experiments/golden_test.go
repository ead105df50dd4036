package experiments

import "testing"

// Golden regression rows: quick-scale Failures/Shots per grid point at the
// default seed, pinned so engine refactors provably do not change the
// statistics. Regenerate only for a deliberate change to the sampling or
// shard-seeding scheme, or to the DEM the circuit-level rows decode (run
// the harness once and copy Rows).
//
// The same harness runs at two worker counts; the rows must match the
// golden values AND each other — the experiments-layer face of the sharded
// engine's determinism contract.

var fig05Golden = []PointStat{
	{"BP-SF(BP50,wmax=1,phi=8)", 0.02, 30, 0},
	{"BP-SF(BP50,wmax=1,phi=8)", 0.04, 30, 0},
	{"BP-SF(BP50,wmax=1,phi=8)", 0.06, 30, 0},
	{"BP-SF(BP50,wmax=1,phi=8)", 0.1, 30, 10},
	{"BP1000-OSD10", 0.02, 30, 0},
	{"BP1000-OSD10", 0.04, 30, 0},
	{"BP1000-OSD10", 0.06, 30, 0},
	{"BP1000-OSD10", 0.1, 30, 9},
	{"BP1000-OSD0", 0.02, 30, 0},
	{"BP1000-OSD0", 0.04, 30, 0},
	{"BP1000-OSD0", 0.06, 30, 0},
	{"BP1000-OSD0", 0.1, 30, 11},
	{"BP1000", 0.02, 30, 0},
	{"BP1000", 0.04, 30, 0},
	{"BP1000", 0.06, 30, 0},
	{"BP1000", 0.1, 30, 11},
}

var fig07Golden = []PointStat{
	{"BP-SF(BP100,wmax=6,phi=50,ns=5)", 0.002, 25, 0},
	{"BP-SF(BP100,wmax=6,phi=50,ns=5)", 0.003, 25, 0},
	{"BP-SF(BP100,wmax=10,phi=50,ns=10)", 0.002, 25, 0},
	{"BP-SF(BP100,wmax=10,phi=50,ns=10)", 0.003, 25, 0},
	{"BP1000-OSD10", 0.002, 25, 0},
	{"BP1000-OSD10", 0.003, 25, 0},
	{"BP1000", 0.002, 25, 0},
	{"BP1000", 0.003, 25, 4},
}

var ufGolden = []PointStat{
	{"rsurf3 UF", 0.001, 60, 0},
	{"rsurf3 UF", 0.02, 60, 1},
	{"rsurf3 UF", 0.05, 60, 0},
	{"rsurf3 UF", 0.08, 60, 4},
	{"rsurf3 BP1000-OSD10", 0.001, 60, 0},
	{"rsurf3 BP1000-OSD10", 0.02, 60, 1},
	{"rsurf3 BP1000-OSD10", 0.05, 60, 0},
	{"rsurf3 BP1000-OSD10", 0.08, 60, 4},
	{"rsurf3 BP1000", 0.001, 60, 0},
	{"rsurf3 BP1000", 0.02, 60, 5},
	{"rsurf3 BP1000", 0.05, 60, 14},
	{"rsurf3 BP1000", 0.08, 60, 17},
	{"rsurf5 UF", 0.001, 60, 0},
	{"rsurf5 UF", 0.02, 60, 1},
	{"rsurf5 UF", 0.05, 60, 0},
	{"rsurf5 UF", 0.08, 60, 2},
	{"rsurf5 BP1000-OSD10", 0.001, 60, 0},
	{"rsurf5 BP1000-OSD10", 0.02, 60, 1},
	{"rsurf5 BP1000-OSD10", 0.05, 60, 0},
	{"rsurf5 BP1000-OSD10", 0.08, 60, 2},
	{"rsurf5 BP1000", 0.001, 60, 0},
	{"rsurf5 BP1000", 0.02, 60, 12},
	{"rsurf5 BP1000", 0.05, 60, 23},
	{"rsurf5 BP1000", 0.08, 60, 33},
}

var fig17cGolden = []PointStat{
	{"BP-SF(BP50,wmax=4,phi=20,ns=5)", 0.002, 25, 0},
	{"BP-SF(BP50,wmax=4,phi=20,ns=5)", 0.004, 25, 3},
	{"BP1000-OSD10", 0.002, 25, 0},
	{"BP1000-OSD10", 0.004, 25, 3},
	{"BP1000", 0.002, 25, 2},
	{"BP1000", 0.004, 25, 5},
}

var windowGolden = []PointStat{
	{"rsurf5 UF", 0.001, 40, 0},
	{"rsurf5 UF", 0.003, 40, 0},
	{"rsurf5 W2C1[UF]", 0.001, 40, 0},
	{"rsurf5 W2C1[UF]", 0.003, 40, 0},
	{"rsurf5 W3C1[UF]", 0.001, 40, 0},
	{"rsurf5 W3C1[UF]", 0.003, 40, 0},
	{"rsurf5 BP100-OSD5", 0.001, 40, 0},
	{"rsurf5 BP100-OSD5", 0.003, 40, 0},
	{"rsurf5 W2C1[BP100-OSD5]", 0.001, 40, 0},
	{"rsurf5 W2C1[BP100-OSD5]", 0.003, 40, 0},
	{"rsurf5 W3C1[BP100-OSD5]", 0.001, 40, 0},
	{"rsurf5 W3C1[BP100-OSD5]", 0.003, 40, 0},
	{"bb72 UF", 0.001, 40, 6},
	{"bb72 UF", 0.003, 40, 28},
	{"bb72 W2C1[UF]", 0.001, 40, 8},
	{"bb72 W2C1[UF]", 0.003, 40, 31},
	{"bb72 W3C1[UF]", 0.001, 40, 7},
	{"bb72 W3C1[UF]", 0.003, 40, 30},
	{"bb72 BP100-OSD5", 0.001, 40, 0},
	{"bb72 BP100-OSD5", 0.003, 40, 0},
	{"bb72 W2C1[BP100-OSD5]", 0.001, 40, 0},
	{"bb72 W2C1[BP100-OSD5]", 0.003, 40, 1},
	{"bb72 W3C1[BP100-OSD5]", 0.001, 40, 0},
	{"bb72 W3C1[BP100-OSD5]", 0.003, 40, 0},
}

func checkGolden(t *testing.T, name string, shots int, golden []PointStat) {
	t.Helper()
	for _, workers := range []int{1, 8} {
		res, err := Run(name, Opts{Shots: shots, Seed: 20260608, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(golden) {
			t.Fatalf("%s workers=%d: %d rows, want %d", name, workers, len(res.Rows), len(golden))
		}
		for i, row := range res.Rows {
			if row != golden[i] {
				t.Errorf("%s workers=%d row %d: got %+v, want %+v", name, workers, i, row, golden[i])
			}
		}
	}
}

// TestCapacitySweepGolden pins a code-capacity harness (Fig. 5, quick
// scale): the parallel sweep must reproduce the committed statistics at any
// worker count.
func TestCapacitySweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden Monte Carlo sweep skipped in -short")
	}
	checkGolden(t, "fig05", 30, fig05Golden)
}

// TestCircuitSweepGolden pins a circuit-level harness (Fig. 17c, quick
// scale), covering the DEM sampler and the stochastic BP-SF trial stream.
func TestCircuitSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden Monte Carlo sweep skipped in -short")
	}
	checkGolden(t, "fig17c", 25, fig17cGolden)
}

// TestCircuitFig07Golden pins the headline circuit-level figure (Fig. 7,
// J144,12,12K, quick scale): a third decoder grid — two BP-SF operating
// points against both baselines — widening regression coverage beyond
// fig05/fig17c.
func TestCircuitFig07Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden Monte Carlo sweep skipped in -short")
	}
	checkGolden(t, "fig07", 25, fig07Golden)
}

// TestUFvsBPOSDGolden pins the union-find comparison experiment (rotated
// surface d=3/5, quick scale) and asserts the acceptance bound: at
// p = 1e-3 the UF failure count stays within 2× of BP-OSD's (with a
// one-failure floor so zero-failure grids cannot mask a regression to a
// handful of failures).
func TestUFvsBPOSDGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden Monte Carlo sweep skipped in -short")
	}
	checkGolden(t, "uf-vs-bposd", 60, ufGolden)

	fails := func(decoder string, p float64) int {
		for _, row := range ufGolden {
			if row.Decoder == decoder && row.P == p {
				return row.Failures
			}
		}
		t.Fatalf("no golden row for %s at p=%g", decoder, p)
		return 0
	}
	for _, code := range []string{"rsurf3", "rsurf5"} {
		uf := fails(code+" UF", 0.001)
		bposd := fails(code+" BP1000-OSD10", 0.001)
		if limit := 2 * max(bposd, 1); uf > limit {
			t.Errorf("%s at p=1e-3: UF failures %d exceed 2× BP-OSD bound %d", code, uf, limit)
		}
	}
}

// TestWindowAccuracyGolden pins the sliding-window experiment (windowed
// vs whole-history decoding, memexp layout, quick scale) at two worker
// counts and asserts the window-subsystem acceptance bound: at p = 1e-3,
// windowed (W=3, C=1) failures stay within 2× of the whole-history decode
// for BOTH inner decoders (UF and BP-OSD) on both codes (with a
// one-failure floor so zero-failure grids cannot mask a regression).
func TestWindowAccuracyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden Monte Carlo sweep skipped in -short")
	}
	checkGolden(t, "window-accuracy", 40, windowGolden)

	fails := func(decoder string, p float64) int {
		for _, row := range windowGolden {
			if row.Decoder == decoder && row.P == p {
				return row.Failures
			}
		}
		t.Fatalf("no golden row for %s at p=%g", decoder, p)
		return 0
	}
	for _, code := range []string{"rsurf5", "bb72"} {
		for _, inner := range []string{"UF", "BP100-OSD5"} {
			whole := fails(code+" "+inner, 0.001)
			windowed := fails(code+" W3C1["+inner+"]", 0.001)
			if limit := 2 * max(whole, 1); windowed > limit {
				t.Errorf("%s at p=1e-3: windowed %s failures %d exceed 2× whole-history bound %d",
					code, inner, windowed, limit)
			}
		}
	}
}
