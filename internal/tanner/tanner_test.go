package tanner

import (
	"math/rand"
	"testing"

	"bpsf/internal/sparse"
)

func TestGraphAdjacency(t *testing.T) {
	h := sparse.FromRows([][]int{
		{1, 1, 0, 1},
		{0, 1, 1, 0},
	})
	g := New(h)
	if g.M != 2 || g.N != 4 || g.E != 5 {
		t.Fatalf("dims M=%d N=%d E=%d", g.M, g.N, g.E)
	}
	if g.CheckDegree(0) != 3 || g.CheckDegree(1) != 2 {
		t.Fatal("check degrees wrong")
	}
	if g.VarDegree(1) != 2 || g.VarDegree(3) != 1 {
		t.Fatal("var degrees wrong")
	}
	lo, hi := g.CheckEdgeRange(0)
	if hi-lo != 3 {
		t.Fatal("edge range wrong")
	}
	// edges of check 0 go to vars 0,1,3
	vars := []int32{}
	for e := lo; e < hi; e++ {
		vars = append(vars, g.EdgeVar[e])
	}
	if vars[0] != 0 || vars[1] != 1 || vars[2] != 3 {
		t.Fatalf("check 0 vars = %v", vars)
	}
	// var 1's edges must point back to checks 0 and 1
	checks := map[int32]bool{}
	for _, e := range g.VarEdgeList(1) {
		checks[g.EdgeCheck[e]] = true
		if g.EdgeVar[e] != 1 {
			t.Fatal("var edge does not reference var 1")
		}
	}
	if !checks[0] || !checks[1] {
		t.Fatalf("var 1 checks = %v", checks)
	}
}

func TestGraphConsistencyRandom(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+r.Intn(30), 1+r.Intn(30)
		b := sparse.NewBuilder(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if r.Float64() < 0.2 {
					b.Set(i, j)
				}
			}
		}
		h := b.Build()
		g := New(h)
		if g.E != h.NNZ() {
			t.Fatal("edge count mismatch")
		}
		// every edge appears exactly once on each side
		seen := make([]bool, g.E)
		for v := 0; v < g.N; v++ {
			for _, e := range g.VarEdgeList(v) {
				if seen[e] {
					t.Fatal("edge listed twice on var side")
				}
				seen[e] = true
				if int(g.EdgeVar[e]) != v {
					t.Fatal("EdgeVar mismatch")
				}
			}
		}
		for _, s := range seen {
			if !s {
				t.Fatal("edge missing on var side")
			}
		}
		for c := 0; c < g.M; c++ {
			lo, hi := g.CheckEdgeRange(c)
			for e := lo; e < hi; e++ {
				if int(g.EdgeCheck[e]) != c {
					t.Fatal("EdgeCheck mismatch")
				}
				if !h.Get(c, int(g.EdgeVar[e])) {
					t.Fatal("edge not present in matrix")
				}
			}
		}
	}
}
