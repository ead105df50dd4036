// Package tanner builds the bipartite check/variable adjacency (Tanner
// graph) of a sparse parity-check matrix in the edge-indexed layout used by
// message-passing decoders: messages live in flat per-edge arrays, and both
// endpoints can enumerate their incident edges without hashing.
package tanner

import (
	"math"

	"bpsf/internal/sparse"
)

// Graph is the Tanner graph of an M×N parity-check matrix. It is immutable
// after construction and safe for concurrent use; decoders allocate their
// own per-edge message buffers.
//
// Edge and node ids inside the adjacency arrays are int32, half the bytes
// of int on the message-passing gathers. The CSR offsets stay int.
type Graph struct {
	// H is the underlying parity-check matrix.
	H *sparse.Mat
	// M is the number of checks (rows), N the number of variables (cols),
	// E the number of edges (nonzeros).
	M, N, E int

	// Check-side CSR: edges of check j are CheckEdges[CheckPtr[j]:CheckPtr[j+1]];
	// edge e connects check EdgeCheck[e] to variable EdgeVar[e]. Check-side
	// edges are numbered consecutively per check, so CheckEdges[k] == k; the
	// slice exists for symmetry and clarity.
	CheckPtr []int
	EdgeVar  []int32

	// Variable-side adjacency: edges of variable i are
	// VarEdges[VarPtr[i]:VarPtr[i+1]] (edge ids into EdgeVar/EdgeCheck).
	VarPtr    []int
	VarEdges  []int32
	EdgeCheck []int32
}

// New builds the Tanner graph of h.
func New(h *sparse.Mat) *Graph {
	m, n := h.Rows(), h.Cols()
	g := &Graph{H: h, M: m, N: n, E: h.NNZ()}
	if g.E > math.MaxInt32 || n > math.MaxInt32 {
		panic("tanner: graph too large for int32 edge ids")
	}
	g.CheckPtr = make([]int, m+1)
	g.EdgeVar = make([]int32, g.E)
	g.EdgeCheck = make([]int32, g.E)
	e := 0
	for j := 0; j < m; j++ {
		g.CheckPtr[j] = e
		for _, v := range h.RowSupport(j) {
			g.EdgeVar[e] = int32(v)
			g.EdgeCheck[e] = int32(j)
			e++
		}
	}
	g.CheckPtr[m] = e

	g.VarPtr = make([]int, n+1)
	g.VarEdges = make([]int32, g.E)
	counts := make([]int, n)
	for _, v := range g.EdgeVar {
		counts[v]++
	}
	for i := 0; i < n; i++ {
		g.VarPtr[i+1] = g.VarPtr[i] + counts[i]
	}
	fill := make([]int, n)
	for e, v := range g.EdgeVar {
		g.VarEdges[g.VarPtr[v]+fill[v]] = int32(e)
		fill[v]++
	}
	return g
}

// CheckDegree returns the degree of check j.
func (g *Graph) CheckDegree(j int) int { return g.CheckPtr[j+1] - g.CheckPtr[j] }
