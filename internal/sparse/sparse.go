// Package sparse implements sparse binary matrices over GF(2) in compressed
// row form, with the column adjacency needed by message-passing decoders.
//
// Parity-check matrices of quantum LDPC codes and detector error models are
// extremely sparse (row/column weights of a few units against dimensions in
// the thousands), so the decoder stack stores them here and converts to
// dense bit-packed form (package gf2) only for elimination-based routines.
package sparse

import (
	"fmt"
	"slices"
	"sort"

	"bpsf/internal/gf2"
)

// Mat is an immutable sparse binary matrix. Build one with a Builder or one
// of the constructors; all decoder-facing accessors are read-only, so a Mat
// may be shared freely across goroutines.
type Mat struct {
	rows, cols int
	// CSR: rowPtr[i]..rowPtr[i+1] indexes into colIdx
	rowPtr []int
	colIdx []int
	// CSC adjacency (column -> rows)
	colPtr []int
	rowIdx []int
}

// Builder accumulates entries for a sparse matrix.
type Builder struct {
	rows, cols int
	entries    map[int64]struct{}
}

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols, entries: make(map[int64]struct{})}
}

// Set records entry (i, j) = 1. Setting the same entry twice is idempotent
// (this is a set of positions, not an accumulator).
func (b *Builder) Set(i, j int) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Set(%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	b.entries[int64(i)<<32|int64(uint32(j))] = struct{}{}
}

// Flip toggles entry (i, j): GF(2) accumulation.
func (b *Builder) Flip(i, j int) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Flip(%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	k := int64(i)<<32 | int64(uint32(j))
	if _, ok := b.entries[k]; ok {
		delete(b.entries, k)
	} else {
		b.entries[k] = struct{}{}
	}
}

// Build finalizes the matrix.
func (b *Builder) Build() *Mat {
	// column-major keys j<<32 | i, so column j's rows come out ascending
	keys := make([]int64, 0, len(b.entries))
	for k := range b.entries {
		keys = append(keys, int64(uint32(k))<<32|k>>32)
	}
	slices.Sort(keys)
	colPtr := make([]int, b.cols+1)
	rowIdx := make([]int, len(keys))
	for n, k := range keys {
		colPtr[int(k>>32)+1]++
		rowIdx[n] = int(uint32(k))
	}
	for j := 0; j < b.cols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	return FromCols(b.rows, colPtr, rowIdx)
}

// FromCols builds a rows×(len(colPtr)−1) matrix from its compressed
// columns: column j's rows are rowIdx[colPtr[j]:colPtr[j+1]], ascending
// and in range. The matrix takes ownership of both slices; its rows come
// from one counting pass over them.
func FromCols(rows int, colPtr, rowIdx []int) *Mat {
	m := &Mat{rows: rows, cols: len(colPtr) - 1, colPtr: colPtr, rowIdx: rowIdx}
	m.rowPtr = make([]int, rows+1)
	m.colIdx = make([]int, len(rowIdx))
	for _, i := range rowIdx {
		m.rowPtr[i+1]++
	}
	for i := 0; i < rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	next := make([]int, rows)
	copy(next, m.rowPtr)
	for j := 0; j < m.cols; j++ {
		for _, i := range rowIdx[colPtr[j]:colPtr[j+1]] {
			m.colIdx[next[i]] = j
			next[i]++
		}
	}
	return m
}

// FromRows builds a sparse matrix from 0/1 int rows.
func FromRows(rows [][]int) *Mat {
	if len(rows) == 0 {
		return NewBuilder(0, 0).Build()
	}
	b := NewBuilder(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			if v&1 == 1 {
				b.Set(i, j)
			}
		}
	}
	return b.Build()
}

// FromDense converts a gf2 dense matrix to sparse form.
func FromDense(d *gf2.Mat) *Mat {
	b := NewBuilder(d.Rows(), d.Cols())
	for i := 0; i < d.Rows(); i++ {
		for _, j := range d.Row(i).Support() {
			b.Set(i, j)
		}
	}
	return b.Build()
}

// Identity returns the n×n sparse identity.
func Identity(n int) *Mat {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Set(i, i)
	}
	return b.Build()
}

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Mat) Cols() int { return m.cols }

// NNZ returns the number of nonzero entries.
func (m *Mat) NNZ() int { return len(m.colIdx) }

// RowSupport returns the sorted column indices of row i. The returned slice
// aliases internal storage and must not be modified.
func (m *Mat) RowSupport(i int) []int {
	return m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]]
}

// ColSupport returns the sorted row indices of column j. The returned slice
// aliases internal storage and must not be modified.
func (m *Mat) ColSupport(j int) []int {
	return m.rowIdx[m.colPtr[j]:m.colPtr[j+1]]
}

// RowWeight returns the weight of row i.
func (m *Mat) RowWeight(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// ColWeight returns the weight of column j.
func (m *Mat) ColWeight(j int) int { return m.colPtr[j+1] - m.colPtr[j] }

// MaxRowWeight returns the largest row weight.
func (m *Mat) MaxRowWeight() int {
	w := 0
	for i := 0; i < m.rows; i++ {
		if rw := m.RowWeight(i); rw > w {
			w = rw
		}
	}
	return w
}

// Get reports whether entry (i, j) is set.
func (m *Mat) Get(i, j int) bool {
	row := m.RowSupport(i)
	k := sort.SearchInts(row, j)
	return k < len(row) && row[k] == j
}

// MulVec returns m·x over GF(2) as a gf2.Vec of length Rows().
func (m *Mat) MulVec(x gf2.Vec) gf2.Vec {
	if x.Len() != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch %d != %d", x.Len(), m.cols))
	}
	out := gf2.NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		parity := false
		for _, j := range m.RowSupport(i) {
			if x.Get(j) {
				parity = !parity
			}
		}
		if parity {
			out.Set(i, true)
		}
	}
	return out
}

// MulVecInto computes m·x into dst (length Rows()), avoiding allocation.
func (m *Mat) MulVecInto(dst, x gf2.Vec) {
	if x.Len() != m.cols || dst.Len() != m.rows {
		panic("sparse: MulVecInto dimension mismatch")
	}
	dst.Zero()
	for i := 0; i < m.rows; i++ {
		parity := false
		for _, j := range m.RowSupport(i) {
			if x.Get(j) {
				parity = !parity
			}
		}
		if parity {
			dst.Set(i, true)
		}
	}
}

// MulSupport returns m·x where x is given by its support (sparse-vector
// product, SpMSpV): the XOR of the columns of m indexed by support. Result
// is returned as a gf2.Vec of length Rows(). This is the trial-syndrome
// operation t·Hᵀ of the BP-SF decoder.
func (m *Mat) MulSupport(support []int) gf2.Vec {
	out := gf2.NewVec(m.rows)
	m.MulSupportInto(out, support)
	return out
}

// MulSupportInto XORs the columns indexed by support into dst. dst is NOT
// cleared first, so this can accumulate s ⊕ tHᵀ in place.
func (m *Mat) MulSupportInto(dst gf2.Vec, support []int) {
	if dst.Len() != m.rows {
		panic("sparse: MulSupportInto dimension mismatch")
	}
	for _, j := range support {
		for _, i := range m.ColSupport(j) {
			dst.Flip(i)
		}
	}
}

// Transpose returns mᵀ.
func (m *Mat) Transpose() *Mat {
	b := NewBuilder(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for _, j := range m.RowSupport(i) {
			b.Set(j, i)
		}
	}
	return b.Build()
}

// Mul returns the sparse product m·b over GF(2).
func (m *Mat) Mul(other *Mat) *Mat {
	if m.cols != other.rows {
		panic(fmt.Sprintf("sparse: Mul dimension mismatch %d != %d", m.cols, other.rows))
	}
	b := NewBuilder(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for _, k := range m.RowSupport(i) {
			for _, j := range other.RowSupport(k) {
				b.Flip(i, j)
			}
		}
	}
	return b.Build()
}

// Kron returns the Kronecker product m ⊗ b.
func Kron(a, b *Mat) *Mat {
	out := NewBuilder(a.rows*b.rows, a.cols*b.cols)
	for i := 0; i < a.rows; i++ {
		for _, j := range a.RowSupport(i) {
			for bi := 0; bi < b.rows; bi++ {
				for _, bj := range b.RowSupport(bi) {
					out.Set(i*b.rows+bi, j*b.cols+bj)
				}
			}
		}
	}
	return out.Build()
}

// HStack returns [a | b].
func HStack(a, b *Mat) *Mat {
	if a.rows != b.rows {
		panic("sparse: HStack row mismatch")
	}
	out := NewBuilder(a.rows, a.cols+b.cols)
	for i := 0; i < a.rows; i++ {
		for _, j := range a.RowSupport(i) {
			out.Set(i, j)
		}
		for _, j := range b.RowSupport(i) {
			out.Set(i, a.cols+j)
		}
	}
	return out.Build()
}

// VStack returns [a ; b].
func VStack(a, b *Mat) *Mat {
	if a.cols != b.cols {
		panic("sparse: VStack column mismatch")
	}
	out := NewBuilder(a.rows+b.rows, a.cols)
	for i := 0; i < a.rows; i++ {
		for _, j := range a.RowSupport(i) {
			out.Set(i, j)
		}
	}
	for i := 0; i < b.rows; i++ {
		for _, j := range b.RowSupport(i) {
			out.Set(a.rows+i, j)
		}
	}
	return out.Build()
}

// ToDense converts to a gf2 dense matrix.
func (m *Mat) ToDense() *gf2.Mat {
	d := gf2.NewMat(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for _, j := range m.RowSupport(i) {
			d.Set(i, j, true)
		}
	}
	return d
}

// Equal reports whether two sparse matrices have the same shape and entries.
func (m *Mat) Equal(b *Mat) bool {
	if m.rows != b.rows || m.cols != b.cols || len(m.colIdx) != len(b.colIdx) {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for i := range m.colIdx {
		if m.colIdx[i] != b.colIdx[i] {
			return false
		}
	}
	return true
}

// String renders a small matrix for debugging.
func (m *Mat) String() string {
	return fmt.Sprintf("sparse.Mat %dx%d nnz=%d", m.rows, m.cols, m.NNZ())
}
