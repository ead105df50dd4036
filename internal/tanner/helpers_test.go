package tanner

// Adjacency accessors only the tests use; decoders index the CSR arrays
// directly.

// VarDegree returns the degree of variable i.
func (g *Graph) VarDegree(i int) int { return g.VarPtr[i+1] - g.VarPtr[i] }

// CheckEdgeRange returns the [lo, hi) edge-id range of check j (check-side
// edges are contiguous).
func (g *Graph) CheckEdgeRange(j int) (lo, hi int) { return g.CheckPtr[j], g.CheckPtr[j+1] }

// VarEdgeList returns the edge ids incident to variable i. The slice aliases
// internal storage and must not be modified.
func (g *Graph) VarEdgeList(i int) []int32 { return g.VarEdges[g.VarPtr[i]:g.VarPtr[i+1]] }
