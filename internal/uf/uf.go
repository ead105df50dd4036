// Package uf implements a deterministic union-find decoder for sparse
// GF(2) decoding problems H·e = s.
//
// The decoder grows clusters around syndrome defects on the Tanner graph
// of H, merging them with weighted union + path compression, until every
// cluster can be neutralized. Two extraction paths share that growth
// engine:
//
//   - Matchable graphs (every column of H has weight ≤ 2 — surface and
//     toric codes, repetition-code products): columns are edges between
//     checks (weight-1 columns attach to a virtual boundary vertex), a
//     cluster is neutral when its defect parity is even or it touches the
//     boundary, and the correction is read off by peeling a spanning
//     forest of each cluster's grown edge set (peel.go).
//
//   - General graphs (any column weight — BB/HGP codes, detector error
//     models with hyperedges): growth alternates bits and checks so every
//     absorbed bit is interior to its cluster, and a cluster is neutral
//     when the syndrome restricted to its checks is solvable by GF(2)
//     elimination over its interior bits (general.go).
//
// Both paths are exact about the residual-syndrome invariant: whenever
// Decode reports Success, H·ErrHat equals the input syndrome. The decoder
// holds no randomness — Decode is a pure function of the syndrome (see
// the determinism contract in DESIGN.md §6) — and reuses its scratch
// buffers, so one instance must not be shared across goroutines (the
// usual decoder contract in this repo).
//
// Because Decode is pure, light syndromes (one or two defects — a single
// mechanism's footprint, the overwhelming majority at operating error
// rates) are memoized: the first decode of each defect pair is cached and
// later ones replay it, skipping the reset, growth and peeling entirely.
package uf

import (
	"math/bits"

	"bpsf/internal/gf2"
	"bpsf/internal/sparse"
)

// Result is one decode report.
type Result struct {
	// Success reports whether every cluster was neutralized; when true,
	// ErrHat reproduces the input syndrome exactly.
	Success bool
	// ErrHat is the estimated error. It aliases an internal buffer and
	// stays valid until the next Decode on the same decoder.
	ErrHat gf2.Vec
	// GrowthRounds is the number of cluster-growth sweeps executed.
	GrowthRounds int
	// Clusters is the number of defect clusters neutralized.
	Clusters int
	// Matchable reports which extraction path ran (peeling vs cluster-local
	// elimination); fixed per decoder, echoed for telemetry.
	Matchable bool
}

// Decoder is a reusable union-find decoder for one parity-check matrix.
type Decoder struct {
	h    *sparse.Mat
	m, n int // checks, bits

	matchable bool

	// ---- matchable representation: vertices 0..m-1 are checks, vertex m
	// is the virtual boundary absorbing weight-1 columns.
	edgeU, edgeV []int32   // endpoints per edge
	edgeCol      []int32   // edge → column of h
	vertEdges    [][]int32 // incident edges per vertex, ascending edge id

	// ---- general representation: h's own adjacency, read in place.

	// ---- union-find + cluster state, reset per decode ----
	parent, size []int32
	defects      []int32   // defect count per root
	hasBound     []bool    // root's cluster touches the boundary (matchable)
	solved       []bool    // root's cluster neutralized (general)
	clVerts      [][]int32 // cluster vertex list per root
	clEdges      [][]int32 // matchable: grown edges; general: absorbed bits
	solBits      [][]int32 // general: per-root local solution columns
	dirty        []bool    // root changed since its last solve attempt (general)
	inGraph      []bool    // matchable: edge added; general: bit absorbed
	defect       []bool    // per-check defect flags
	errHat       gf2.Vec
	roots        []int32 // seed checks; find() maps them to live roots

	// ---- scratch ----
	rootScratch []int32 // activeRoots result buffer
	snapshot    []int32 // per-cluster vertex snapshot during growth
	seen        []bool  // dedup in activeRoots, visited set in BFS

	// peeling scratch (matchable only)
	bfsOrder             []int32
	parentEdge           []int32
	parentVert           []int32
	adjHead              []int32
	edgeNextU, edgeNextV []int32

	// elimination scratch (general only)
	localRow []int32 // cluster check → its row in the trySolve workspace
	aug      gf2.Mat // [H_cluster | s] workspace, grown on demand
	pivots   []int   // pivot column per reduced row

	// light-syndrome memo, indexed by memoKey; allocated on the first
	// light syndrome, and never when m > memoMaxChecks
	memo []memoEntry
}

// memoMaxChecks bounds the light-syndrome memo table: m(m+1)/2 entries of
// 40 B, so 256 checks cost at most 1.3 MiB per decoder. Every capacity
// graph and every small-distance DEM in the paper's evaluation fits.
const memoMaxChecks = 256

// memoEntry caches one light-syndrome decode: the support of ErrHat (the
// partial flips of a failed peel included, so replays stay exact either
// way) and the rest of the Result.
type memoEntry struct {
	cols             []int32
	rounds, clusters int32
	filled, success  bool
}

// memoKey indexes the ascending defect pair u ≤ v (u == v for a single
// defect) into the triangular memo table.
func memoKey(u, v int32) int { return int(v)*(int(v)+1)/2 + int(u) }

// New builds a decoder for parity-check matrix h. The matchable fast path
// is selected at construction time when every column of h has weight ≤ 2.
func New(h *sparse.Mat) *Decoder {
	m, n := h.Rows(), h.Cols()
	d := &Decoder{h: h, m: m, n: n, matchable: true}
	for j := 0; j < n; j++ {
		if h.ColWeight(j) > 2 {
			d.matchable = false
			break
		}
	}
	nv := m + 1 // the general path simply ignores the boundary slot
	if d.matchable {
		d.vertEdges = make([][]int32, nv)
		for j := 0; j < n; j++ {
			supp := h.ColSupport(j)
			var u, v int32
			switch len(supp) {
			case 0:
				continue // a never-flippable column; unusable
			case 1:
				u, v = supp[0], int32(m) // boundary edge
			default:
				u, v = supp[0], supp[1]
			}
			e := int32(len(d.edgeCol))
			d.edgeU = append(d.edgeU, u)
			d.edgeV = append(d.edgeV, v)
			d.edgeCol = append(d.edgeCol, int32(j))
			d.vertEdges[u] = append(d.vertEdges[u], e)
			d.vertEdges[v] = append(d.vertEdges[v], e)
		}
		ne := len(d.edgeCol)
		d.inGraph = make([]bool, ne)
		d.bfsOrder = make([]int32, 0, nv)
		d.parentEdge = make([]int32, nv)
		d.parentVert = make([]int32, nv)
		d.adjHead = make([]int32, nv)
		d.edgeNextU = make([]int32, ne)
		d.edgeNextV = make([]int32, ne)
	} else {
		d.inGraph = make([]bool, n)
		d.localRow = make([]int32, m)
	}

	d.parent = make([]int32, nv)
	d.size = make([]int32, nv)
	d.defects = make([]int32, nv)
	d.hasBound = make([]bool, nv)
	d.solved = make([]bool, nv)
	d.clVerts = make([][]int32, nv)
	d.clEdges = make([][]int32, nv)
	d.solBits = make([][]int32, nv)
	d.dirty = make([]bool, nv)
	d.defect = make([]bool, nv)
	d.errHat = gf2.NewVec(n)
	d.seen = make([]bool, nv)
	return d
}

// Matchable reports whether the decoder runs the peeling fast path.
func (d *Decoder) Matchable() bool { return d.matchable }

// H returns the decoder's parity-check matrix.
func (d *Decoder) H() *sparse.Mat { return d.h }

// reset prepares the scratch state for one full decode. Cluster lists
// are truncated, not dropped, so a warm decoder does not allocate.
func (d *Decoder) reset() {
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
		d.defects[i] = 0
		d.hasBound[i] = false
		d.solved[i] = false
		d.clVerts[i] = d.clVerts[i][:0]
		d.clEdges[i] = d.clEdges[i][:0]
		d.solBits[i] = d.solBits[i][:0]
		d.dirty[i] = false
		d.defect[i] = false
		d.seen[i] = false
	}
	for i := range d.inGraph {
		d.inGraph[i] = false
	}
	d.errHat.Zero()
}

// find returns the root of v with path compression.
func (d *Decoder) find(v int32) int32 {
	for d.parent[v] != v {
		d.parent[v] = d.parent[d.parent[v]]
		v = d.parent[v]
	}
	return v
}

// vlist returns the (lazily materialized) vertex list of root r.
func (d *Decoder) vlist(r int32) []int32 {
	if len(d.clVerts[r]) == 0 {
		d.clVerts[r] = append(d.clVerts[r], r)
	}
	return d.clVerts[r]
}

// union merges the clusters of a and b (weighted by size, ties broken
// toward the smaller root index — part of the determinism contract) and
// returns the surviving root.
func (d *Decoder) union(a, b int32) int32 {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return ra
	}
	if d.size[ra] < d.size[rb] || (d.size[ra] == d.size[rb] && rb < ra) {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	d.defects[ra] += d.defects[rb]
	d.hasBound[ra] = d.hasBound[ra] || d.hasBound[rb]
	d.solved[ra] = false
	d.solved[rb] = false
	d.dirty[ra] = true
	d.clVerts[ra] = append(d.vlist(ra), d.vlist(rb)...)
	d.clVerts[rb] = d.clVerts[rb][:0]
	d.clEdges[ra] = append(d.clEdges[ra], d.clEdges[rb]...)
	d.clEdges[rb] = d.clEdges[rb][:0]
	d.solBits[ra] = d.solBits[ra][:0]
	d.solBits[rb] = d.solBits[rb][:0]
	return ra
}

// activeRoots maps the defect seeds to their current distinct cluster
// roots, ascending. The result aliases an internal buffer valid until the
// next call.
func (d *Decoder) activeRoots() []int32 {
	out := d.rootScratch[:0]
	for _, v := range d.roots {
		r := d.find(v)
		if !d.seen[r] {
			d.seen[r] = true
			out = append(out, r)
		}
	}
	for _, r := range out {
		d.seen[r] = false
	}
	// insertion sort: the root list is small and mostly ordered
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	d.rootScratch = out
	return out
}

// Decode decodes one syndrome. The returned ErrHat aliases an internal
// buffer valid until the next Decode, memo hits included.
func (d *Decoder) Decode(s gf2.Vec) Result {
	if s.Len() != d.m {
		panic("uf: syndrome length mismatch")
	}
	// defect seeds in ascending check order, read off the syndrome words
	d.roots = d.roots[:0]
	for wi, w := range s.Words() {
		for w != 0 {
			d.roots = append(d.roots, int32(wi*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	switch {
	case len(d.roots) == 0:
		d.errHat.Zero()
		return Result{Success: true, ErrHat: d.errHat, Matchable: d.matchable}
	case len(d.roots) <= 2 && d.m <= memoMaxChecks:
		return d.decodeLight()
	}
	return d.decodeFull()
}

// decodeLight serves a one- or two-defect syndrome from the memo, running
// and recording the full decode the first time the defect pair is seen.
func (d *Decoder) decodeLight() Result {
	if d.memo == nil {
		d.memo = make([]memoEntry, memoKey(0, int32(d.m)))
	}
	ent := &d.memo[memoKey(d.roots[0], d.roots[len(d.roots)-1])]
	if !ent.filled {
		res := d.decodeFull()
		for wi, w := range d.errHat.Words() {
			for w != 0 {
				ent.cols = append(ent.cols, int32(wi*64+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		ent.rounds, ent.clusters = int32(res.GrowthRounds), int32(res.Clusters)
		ent.success, ent.filled = res.Success, true
		return res
	}
	d.errHat.Zero()
	for _, j := range ent.cols {
		d.errHat.Set(int(j), true)
	}
	return Result{
		Success:      ent.success,
		ErrHat:       d.errHat,
		GrowthRounds: int(ent.rounds),
		Clusters:     int(ent.clusters),
		Matchable:    d.matchable,
	}
}

// decodeFull grows and neutralizes clusters around the seeds in d.roots.
func (d *Decoder) decodeFull() Result {
	d.reset()
	res := Result{Matchable: d.matchable, ErrHat: d.errHat}
	for _, c := range d.roots {
		d.defect[c] = true
		d.defects[c] = 1
	}
	if d.matchable {
		d.hasBound[d.m] = true // the boundary vertex's own cluster
		res.Success = d.growMatchable(&res) && d.peelAll(&res)
	} else {
		res.Success = d.growGeneral(&res, (*Decoder).trySolve)
	}
	return res
}
