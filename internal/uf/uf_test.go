package uf

import (
	"math/rand"
	"testing"

	"bpsf/internal/code"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/sparse"
)

func mustCode(t *testing.T, build func() (*code.CSS, error)) *code.CSS {
	t.Helper()
	c, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPathSelection(t *testing.T) {
	rsurf := mustCode(t, codes.RotatedSurface3)
	if !New(rsurf.HZ).Matchable() {
		t.Error("rotated surface HZ should take the peeling path")
	}
	toric := mustCode(t, func() (*code.CSS, error) { return codes.Toric(3) })
	if !New(toric.HZ).Matchable() {
		t.Error("toric HZ should take the peeling path")
	}
	bb := mustCode(t, codes.BB72)
	if New(bb.HZ).Matchable() {
		t.Error("BB72 HZ (column weight 3) should take the elimination path")
	}
}

func TestZeroSyndrome(t *testing.T) {
	c := mustCode(t, codes.RotatedSurface3)
	d := New(c.HZ)
	r := d.Decode(gf2.NewVec(c.HZ.Rows()))
	if !r.Success || r.ErrHat.Weight() != 0 {
		t.Fatalf("zero syndrome: success=%v weight=%d", r.Success, r.ErrHat.Weight())
	}
}

// TestSingleErrorsCorrected checks that every single-qubit error is
// corrected exactly (syndrome reproduced, no logical residual) on both the
// boundary (rotated surface) and boundaryless (toric) peeling workloads.
func TestSingleErrorsCorrected(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*code.CSS, error)
	}{
		{"rsurf3", codes.RotatedSurface3},
		{"rsurf5", codes.RotatedSurface5},
		{"toric4", codes.Toric4},
	} {
		c := mustCode(t, tc.build)
		d := New(c.HZ)
		for q := 0; q < c.N; q++ {
			e := gf2.NewVec(c.N)
			e.Set(q, true)
			s := c.SyndromeOfX(e)
			r := d.Decode(s)
			if !r.Success {
				t.Fatalf("%s qubit %d: decode failed", tc.name, q)
			}
			if got := c.HZ.MulVec(r.ErrHat); !got.Equal(s) {
				t.Fatalf("%s qubit %d: residual syndrome", tc.name, q)
			}
			resid := e.Clone()
			resid.Xor(r.ErrHat)
			if c.IsLogicalX(resid) {
				t.Fatalf("%s qubit %d: logical error on weight-1 input", tc.name, q)
			}
		}
	}
}

// TestResidualSyndromeInvariant fuzzes random errors through both paths:
// whenever Decode reports success, H·ErrHat must equal the syndrome
// exactly.
func TestResidualSyndromeInvariant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*code.CSS, error)
		p     float64
	}{
		{"rsurf5", codes.RotatedSurface5, 0.08},
		{"toric4", codes.Toric4, 0.08},
		{"bb72", codes.BB72, 0.03},
		{"hgp-surface3", func() (*code.CSS, error) { return codes.Surface(3) }, 0.08},
	} {
		c := mustCode(t, tc.build)
		d := New(c.HZ)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			e := gf2.NewVec(c.N)
			for q := 0; q < c.N; q++ {
				if rng.Float64() < tc.p {
					e.Set(q, true)
				}
			}
			s := c.SyndromeOfX(e)
			r := d.Decode(s)
			if !r.Success {
				t.Fatalf("%s trial %d: decode failed on a consistent syndrome", tc.name, trial)
			}
			if got := c.HZ.MulVec(r.ErrHat); !got.Equal(s) {
				t.Fatalf("%s trial %d: H·ErrHat != s", tc.name, trial)
			}
		}
	}
}

// TestDecodeDeterministic re-decodes the same syndromes on a fresh decoder
// and on a reused one: estimates must be byte-identical.
func TestDecodeDeterministic(t *testing.T) {
	c := mustCode(t, codes.RotatedSurface5)
	d1, d2 := New(c.HZ), New(c.HZ)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		e := gf2.NewVec(c.N)
		for q := 0; q < c.N; q++ {
			if rng.Float64() < 0.1 {
				e.Set(q, true)
			}
		}
		s := c.SyndromeOfX(e)
		r1 := d1.Decode(s)
		hat1 := r1.ErrHat.Clone()
		r2 := d1.Decode(s) // reused decoder
		if !hat1.Equal(r2.ErrHat) || r1.Success != r2.Success {
			t.Fatalf("trial %d: reused decoder diverged", trial)
		}
		r3 := d2.Decode(s) // fresh decoder
		if !hat1.Equal(r3.ErrHat) || r1.Success != r3.Success {
			t.Fatalf("trial %d: fresh decoder diverged", trial)
		}
	}
}

// TestInconsistentSyndromeFails feeds syndromes outside the image of H:
// Decode must terminate with Success=false on both paths.
func TestInconsistentSyndromeFails(t *testing.T) {
	// toric code: every column flips exactly two checks, so odd-weight
	// syndromes are unreachable
	toric := mustCode(t, codes.Toric4)
	d := New(toric.HZ)
	s := gf2.NewVec(toric.HZ.Rows())
	s.Set(0, true)
	if r := d.Decode(s); r.Success {
		t.Error("toric: odd-weight syndrome decoded successfully")
	}

	// BB72: rank(HZ) < rows, so some unit syndrome is inconsistent
	bb := mustCode(t, codes.BB72)
	dense := make([][]bool, bb.HZ.Rows())
	for i := range dense {
		dense[i] = make([]bool, bb.HZ.Cols())
		for _, j := range bb.HZ.RowSupport(i) {
			dense[i][j] = true
		}
	}
	found := false
	for i := 0; i < bb.HZ.Rows() && !found; i++ {
		s := gf2.NewVec(bb.HZ.Rows())
		s.Set(i, true)
		unit := make([]bool, bb.HZ.Rows())
		unit[i] = true
		if _, ok := solveRef(dense, unit, bb.HZ.Cols()); ok {
			continue
		}
		found = true
		if r := New(bb.HZ).Decode(s); r.Success {
			t.Errorf("bb72: inconsistent syndrome %d decoded successfully", i)
		}
	}
	if !found {
		t.Skip("bb72 HZ has full row rank; no inconsistent unit syndrome")
	}
}

// TestBoundaryOnlyColumns exercises weight-1 columns: a repetition-code
// check matrix augmented with a weight-0 column must still decode.
func TestWeightZeroAndOneColumns(t *testing.T) {
	// H = [1 1 0 0; 0 1 1 0] over 4 bits: bit 3 is weight-0, bit 0 and 2
	// are weight-1 boundary edges, bit 1 is a weight-2 edge.
	b := sparse.NewBuilder(2, 4)
	b.Set(0, 0)
	b.Set(0, 1)
	b.Set(1, 1)
	b.Set(1, 2)
	h := b.Build()
	d := New(h)
	if !d.Matchable() {
		t.Fatal("expected matchable")
	}
	for bits := 0; bits < 4; bits++ {
		s := gf2.NewVec(2)
		if bits&1 != 0 {
			s.Set(0, true)
		}
		if bits&2 != 0 {
			s.Set(1, true)
		}
		r := d.Decode(s)
		if !r.Success {
			t.Fatalf("syndrome %02b: decode failed", bits)
		}
		if got := h.MulVec(r.ErrHat); !got.Equal(s) {
			t.Fatalf("syndrome %02b: H·ErrHat != s", bits)
		}
	}
}

// TestResultErrHatAliasing pins the Result.ErrHat contract ("valid until
// the next Decode"): retaining ErrHat across a Decode observes the next
// decode's estimate — memo hits write into the same buffer — so every
// call site that keeps an estimate must copy before reusing the decoder.
// The sim engine and the service pool both copy (resid.CopyFrom /
// Response.ErrHat append); this test keeps the trap visible.
func TestResultErrHatAliasing(t *testing.T) {
	c, err := codes.Get("rsurf5")
	if err != nil {
		t.Fatal(err)
	}
	d := New(c.HZ)

	e := gf2.NewVec(c.N)
	e.Set(3, true)
	s1 := c.SyndromeOfX(e)
	res1 := d.Decode(s1)
	if !res1.Success || res1.ErrHat.IsZero() {
		t.Fatalf("seed decode did not produce a nonzero estimate")
	}
	kept := res1.ErrHat          // aliasing abuse: retained across Decode
	saved := res1.ErrHat.Clone() // the correct idiom

	res2 := d.Decode(gf2.NewVec(c.HZ.Rows())) // empty syndrome zeroes the buffer
	if !res2.Success {
		t.Fatal("empty syndrome must decode")
	}
	if !kept.IsZero() {
		t.Fatalf("retained ErrHat kept its value across Decode; the aliasing contract changed")
	}
	if saved.IsZero() {
		t.Fatalf("cloned estimate must survive decoder reuse")
	}

	// A memo hit hands out the same buffer, and the next Decode (another
	// light syndrome here) overwrites it.
	hit := d.Decode(s1)
	if !hit.ErrHat.Equal(saved) {
		t.Fatal("memo hit diverged from the first decode")
	}
	keptHit := hit.ErrHat
	e2 := gf2.NewVec(c.N)
	e2.Set(17, true)
	res3 := d.Decode(c.SyndromeOfX(e2))
	if res3.ErrHat.Equal(saved) {
		t.Fatal("second syndrome must decode to a different estimate")
	}
	if !keptHit.Equal(res3.ErrHat) || keptHit.Equal(saved) {
		t.Fatal("ErrHat kept from a memo hit survived the next Decode; the aliasing contract changed")
	}
}

// circuitDEM builds the memory-experiment detector error model of a
// catalog code.
func circuitDEM(t testing.TB, name string, rounds int) *dem.DEM {
	t.Helper()
	c, err := codes.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(c, rounds, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	d, err := dem.Extract(circ)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// lightAndHeavySyndromes mixes the syndromes a memo must get right:
// single-column syndromes (every column, or 200 random ones on large
// DEMs), random detector pairs and singles (some inconsistent, so failure
// verdicts are cached too), and sampled errors of density p, most of
// which have more than two defects.
func lightAndHeavySyndromes(h *sparse.Mat, p float64, seed int64) []gf2.Vec {
	m, n := h.Rows(), h.Cols()
	rng := rand.New(rand.NewSource(seed))
	var out []gf2.Vec
	for j := 0; j < n; j++ {
		col := j
		if n > 200 {
			if j == 200 {
				break
			}
			col = rng.Intn(n)
		}
		e := gf2.NewVec(n)
		e.Set(col, true)
		out = append(out, h.MulVec(e))
	}
	for i := 0; i < 100; i++ {
		s := gf2.NewVec(m)
		s.Set(rng.Intn(m), true)
		if i%3 != 0 {
			s.Set(rng.Intn(m), true)
		}
		out = append(out, s)
	}
	for i := 0; i < 100; i++ {
		e := gf2.NewVec(n)
		for j := 0; j < n; j++ {
			if rng.Float64() < p {
				e.Set(j, true)
			}
		}
		out = append(out, h.MulVec(e))
	}
	return out
}

// TestMemoMatchesFreshDecode is the memo exactness check: one warmed,
// reused decoder (every light syndrome already memoized) must return the
// same full Result as a fresh decoder on every syndrome — Success, every
// ErrHat bit, GrowthRounds and Clusters. A DEM with more than
// memoMaxChecks checks must never build the table.
func TestMemoMatchesFreshDecode(t *testing.T) {
	for _, tc := range []struct {
		name   string
		h      func(t *testing.T) *sparse.Mat
		p      float64
		noMemo bool
	}{
		{"rsurf5-r5-circuit", func(t *testing.T) *sparse.Mat { return circuitDEM(t, "rsurf5", 5).H }, 0.003, false},
		{"rsurf5-capacity", func(t *testing.T) *sparse.Mat { return mustCode(t, codes.RotatedSurface5).HZ }, 0.05, false},
		{"toric4-capacity", func(t *testing.T) *sparse.Mat { return mustCode(t, codes.Toric4).HZ }, 0.05, false},
		{"rsurf5-r11-circuit", func(t *testing.T) *sparse.Mat { return circuitDEM(t, "rsurf5", 11).H }, 0.002, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.h(t)
			if big := h.Rows() > memoMaxChecks; big != tc.noMemo {
				t.Fatalf("%d checks: memo-off case %v, want %v", h.Rows(), big, tc.noMemo)
			}
			syns := lightAndHeavySyndromes(h, tc.p, 3)
			warm := New(h)
			for _, s := range syns {
				warm.Decode(s)
			}
			light := 0
			for i, s := range syns {
				if s.Weight() <= 2 {
					light++
				}
				got := warm.Decode(s)
				want := New(h).Decode(s)
				if got.Success != want.Success || !got.ErrHat.Equal(want.ErrHat) ||
					got.GrowthRounds != want.GrowthRounds || got.Clusters != want.Clusters ||
					got.Matchable != want.Matchable {
					t.Fatalf("syndrome %d (weight %d): warm {%v rounds=%d clusters=%d}, fresh {%v rounds=%d clusters=%d}",
						i, s.Weight(), got.Success, got.GrowthRounds, got.Clusters,
						want.Success, want.GrowthRounds, want.Clusters)
				}
			}
			if light == 0 || light == len(syns) {
				t.Fatalf("%d of %d syndromes light; the mix must cover both paths", light, len(syns))
			}
			if (warm.memo == nil) != tc.noMemo {
				t.Fatalf("memo allocated = %v with %d checks", warm.memo != nil, h.Rows())
			}
		})
	}
}

// TestDecodeZeroAllocSteadyState: a warm decoder does not allocate — full
// decodes on the matchable rsurf5 graph (truncated cluster lists, defects
// seeded from the syndrome words), memo hits on the rsurf5 r5 circuit DEM,
// and memo misses on the rsurf5 r5 and bb72 r2 circuit DEMs (general-path
// growth and the in-place cluster solve) alike.
func TestDecodeZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    func(t *testing.T) *sparse.Mat
		p    float64
		keep func(gf2.Vec) bool
	}{
		{"rsurf5-capacity", func(t *testing.T) *sparse.Mat { return mustCode(t, codes.RotatedSurface5).HZ }, 0.08,
			func(gf2.Vec) bool { return true }},
		{"rsurf5-r5-circuit-memo", func(t *testing.T) *sparse.Mat { return circuitDEM(t, "rsurf5", 5).H }, 0.003,
			func(s gf2.Vec) bool { return s.Weight() <= 2 }},
		{"rsurf5-r5-circuit-miss", func(t *testing.T) *sparse.Mat { return circuitDEM(t, "rsurf5", 5).H }, 0.003,
			func(s gf2.Vec) bool { return s.Weight() > 2 }},
		{"bb72-r2-circuit-miss", func(t *testing.T) *sparse.Mat { return circuitDEM(t, "bb72", 2).H }, 0.003,
			func(s gf2.Vec) bool { return s.Weight() > 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.h(t)
			var syns []gf2.Vec
			for _, s := range lightAndHeavySyndromes(h, tc.p, 9) {
				if tc.keep(s) {
					syns = append(syns, s)
				}
			}
			d := New(h)
			for _, s := range syns {
				d.Decode(s) // warm scratch capacities and the memo
			}
			i := 0
			allocs := testing.AllocsPerRun(len(syns), func() {
				d.Decode(syns[i%len(syns)])
				i++
			})
			if allocs != 0 {
				t.Fatalf("warm Decode allocates %.2f/op, want 0", allocs)
			}
		})
	}
}
