package uf

import (
	"fmt"
	"testing"

	"bpsf/internal/dem"
	"bpsf/internal/gf2"
)

// trySolveRef is the cluster solve as it was before the in-place
// workspace: a fresh dense submatrix over the cluster's checks and interior
// bits, solved by solveRef. It is the reference the differential test
// holds trySolve to.
func trySolveRef(d *Decoder, r int32) bool {
	checks := d.vlist(r)
	bits := d.clEdges[r]
	localCol := make(map[int32]int, len(bits))
	for lj, b := range bits {
		localCol[b] = lj
	}
	sub := make([][]bool, len(checks))
	rhs := make([]bool, len(checks))
	for li, c := range checks {
		sub[li] = make([]bool, len(bits))
		rhs[li] = d.defect[c]
		for _, b := range d.h.RowSupport(int(c)) {
			if lj, ok := localCol[b]; ok {
				sub[li][lj] = true
			}
		}
	}
	x, ok := solveRef(sub, rhs, len(bits))
	if !ok {
		return false
	}
	sol := d.solBits[r][:0]
	for lj, set := range x {
		if set {
			sol = append(sol, bits[lj])
		}
	}
	d.solBits[r] = sol
	d.solved[r] = true
	return true
}

// solveRef solves a·x = b for the rows×cols system a by Gauss–Jordan
// elimination over bool entries, free variables zero, or reports false
// when it is inconsistent. It shares no code with gf2.Mat.RREF.
func solveRef(a [][]bool, b []bool, cols int) ([]bool, bool) {
	r := make([][]bool, len(a))
	for i := range a {
		r[i] = append(append(make([]bool, 0, cols+1), a[i]...), b[i])
	}
	var pivots []int
	for col := 0; col < cols && len(pivots) < len(r); col++ {
		row := len(pivots)
		sel := row
		for sel < len(r) && !r[sel][col] {
			sel++
		}
		if sel == len(r) {
			continue
		}
		r[row], r[sel] = r[sel], r[row]
		for i := range r {
			if i != row && r[i][col] {
				for j := range r[i] {
					r[i][j] = r[i][j] != r[row][j]
				}
			}
		}
		pivots = append(pivots, col)
	}
	for i := len(pivots); i < len(r); i++ {
		if r[i][cols] {
			return nil, false
		}
	}
	x := make([]bool, cols)
	for i, col := range pivots {
		x[col] = r[i][cols]
	}
	return x, true
}

// decodeRef is a full general-path decode of s with trySolveRef, bypassing
// the memo.
func decodeRef(d *Decoder, s gf2.Vec) Result {
	d.roots = d.roots[:0]
	for _, c := range s.Support() {
		d.roots = append(d.roots, int32(c))
	}
	d.reset()
	res := Result{Matchable: d.matchable, ErrHat: d.errHat}
	for _, c := range d.roots {
		d.defect[c] = true
		d.defects[c] = 1
	}
	res.Success = d.growGeneral(&res, trySolveRef)
	return res
}

// memoMissSyndromes samples DEM syndromes at rate p until it holds want
// with more than two defects: the ones every decode solves afresh.
func memoMissSyndromes(d *dem.DEM, p float64, want int, seed int64) []gf2.Vec {
	smp := dem.NewSampler(d, p, seed)
	var out []gf2.Vec
	for len(out) < want {
		if s, _ := smp.SampleShared(); s.Weight() > 2 {
			out = append(out, s.Clone())
		}
	}
	return out
}

// TestClusterSolveMatchesReference is the differential test of the
// in-place cluster solve: on circuit-level DEMs (hyperedges, so the general
// path) a fresh decoder and a warm, reused one must both return the full
// Result of a decode whose clusters are solved by trySolveRef — Success,
// every ErrHat bit, GrowthRounds and Clusters.
func TestClusterSolveMatchesReference(t *testing.T) {
	const perCell = 300
	cells := []struct {
		code   string
		rounds int
		ps     []float64
	}{
		{"rsurf5", 5, []float64{1e-3, 4e-3, 2e-2}},
		{"bb72", 2, []float64{3e-3, 1e-2}},
		{"rsurf3", 3, []float64{3e-2}},
	}
	for _, cell := range cells {
		d := circuitDEM(t, cell.code, cell.rounds)
		if New(d.H).Matchable() {
			t.Fatalf("%s r%d DEM takes the peeling path; the test needs the general one", cell.code, cell.rounds)
		}
		for ci, p := range cell.ps {
			t.Run(fmt.Sprintf("%s-r%d-p%g", cell.code, cell.rounds, p), func(t *testing.T) {
				syns := memoMissSyndromes(d, p, perCell, int64(ci+1))
				ref, warm := New(d.H), New(d.H)
				for _, s := range syns {
					warm.Decode(s)
				}
				failures := 0
				for i, s := range syns {
					want := decodeRef(ref, s)
					if !want.Success {
						failures++
					}
					for _, got := range []struct {
						name string
						res  Result
					}{{"warm", warm.Decode(s)}, {"fresh", New(d.H).Decode(s)}} {
						if got.res.Success != want.Success || !got.res.ErrHat.Equal(want.ErrHat) ||
							got.res.GrowthRounds != want.GrowthRounds || got.res.Clusters != want.Clusters ||
							got.res.Matchable != want.Matchable {
							t.Fatalf("syndrome %d (weight %d): %s {%v rounds=%d clusters=%d weight=%d}, reference {%v rounds=%d clusters=%d weight=%d}",
								i, s.Weight(), got.name, got.res.Success, got.res.GrowthRounds, got.res.Clusters, got.res.ErrHat.Weight(),
								want.Success, want.GrowthRounds, want.Clusters, want.ErrHat.Weight())
						}
					}
				}
				if failures == len(syns) {
					t.Fatal("every reference decode failed; the cell exercises no solutions")
				}
			})
		}
	}
}
