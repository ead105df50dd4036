// Package sparse implements sparse binary matrices over GF(2) in compressed
// row form, with the column adjacency needed by message-passing decoders.
// A Mat is its own Tanner graph: entry k of the row-major order is edge k,
// so decoders keep per-edge messages in flat arrays indexed by these ids
// and share one matrix instead of copying its adjacency.
//
// Parity-check matrices of quantum LDPC codes and detector error models are
// extremely sparse (row/column weights of a few units against dimensions in
// the thousands), so the decoder stack stores them here and converts to
// dense bit-packed form (package gf2) only for elimination-based routines.
package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"bpsf/internal/gf2"
)

// Mat is an immutable sparse binary matrix. Build one with a Builder or one
// of the constructors; all decoder-facing accessors are read-only, so a Mat
// may be shared freely across goroutines.
//
// Indices are int32, half the bytes of int on the message-passing gathers;
// the offsets stay int.
type Mat struct {
	rows, cols int
	// CSR: row i's entries are edges rowPtr[i]..rowPtr[i+1], and edge e
	// lies in column colIdx[e]
	rowPtr []int
	colIdx []int32
	// CSC: column j's entries are positions colPtr[j]..colPtr[j+1] in
	// ascending row order; position k lies in row rowIdx[k] and is edge
	// edge[k]
	colPtr []int
	rowIdx []int32
	edge   []int32
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
	rowIdx := make([]int32, len(keys))
	for n, k := range keys {
		colPtr[int(k>>32)+1]++
		rowIdx[n] = int32(k)
	}
	for j := 0; j < b.cols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	return FromCols(b.rows, colPtr, rowIdx)
}

// FromCols builds a rows×(len(colPtr)−1) matrix from its compressed
// columns: column j's rows are rowIdx[colPtr[j]:colPtr[j+1]], ascending
// and in range. The matrix takes ownership of both slices; its rows and
// edge map come from one counting pass over them. It panics if a column
// or edge id would not fit in an int32.
func FromCols(rows int, colPtr []int, rowIdx []int32) *Mat {
	cols := len(colPtr) - 1
	if cols > math.MaxInt32 || len(rowIdx) > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %d columns, %d entries overflow int32 ids", cols, len(rowIdx)))
	}
	m := &Mat{rows: rows, cols: cols, colPtr: colPtr, rowIdx: rowIdx}
	m.rowPtr = make([]int, rows+1)
	m.colIdx = make([]int32, len(rowIdx))
	m.edge = make([]int32, len(rowIdx))
	for _, i := range rowIdx {
		m.rowPtr[i+1]++
	}
	for i := 0; i < rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	next := make([]int, rows)
	copy(next, m.rowPtr)
	for j := 0; j < cols; j++ {
		for k := colPtr[j]; k < colPtr[j+1]; k++ {
			i := rowIdx[k]
			m.colIdx[next[i]] = int32(j)
			m.edge[k] = int32(next[i])
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
func (m *Mat) RowSupport(i int) []int32 {
	return m.colIdx[m.rowPtr[i]:m.rowPtr[i+1]]
}

// ColSupport returns the sorted row indices of column j. The returned slice
// aliases internal storage and must not be modified.
func (m *Mat) ColSupport(j int) []int32 {
	return m.rowIdx[m.colPtr[j]:m.colPtr[j+1]]
}

// CSR returns the row side of the Tanner graph: row i's edges are
// ptr[i]..ptr[i+1], and edge e lies in column cols[e]. The slices alias
// internal storage and must not be modified.
func (m *Mat) CSR() (ptr []int, cols []int32) { return m.rowPtr, m.colIdx }

// CSC returns the column side of the Tanner graph: column j's entries are
// positions ptr[j]..ptr[j+1] in ascending row order, and position k lies
// in row rows[k] and is edge edge[k] of the CSR side. The slices alias
// internal storage and must not be modified.
func (m *Mat) CSC() (ptr []int, rows, edge []int32) { return m.colPtr, m.rowIdx, m.edge }

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
	_, ok := slices.BinarySearch(m.RowSupport(i), int32(j))
	return ok
}

// MulVec returns m·x over GF(2) as a gf2.Vec of length Rows().
func (m *Mat) MulVec(x gf2.Vec) gf2.Vec {
	out := gf2.NewVec(m.rows)
	m.MulVecInto(out, x)
	return out
}

// MulVecInto computes m·x into dst (length Rows()), avoiding allocation.
// It XORs the columns of x's set bits, so its cost follows x's weight,
// not the matrix's size.
func (m *Mat) MulVecInto(dst, x gf2.Vec) {
	if x.Len() != m.cols || dst.Len() != m.rows {
		panic("sparse: MulVecInto dimension mismatch")
	}
	dst.Zero()
	for k, w := range x.Words() {
		for ; w != 0; w &= w - 1 {
			for _, i := range m.ColSupport(k*64 + bits.TrailingZeros64(w)) {
				dst.Flip(int(i))
			}
		}
	}
}

// MulSupportInto XORs the columns indexed by support into dst (a
// sparse-vector product, SpMSpV). dst is NOT cleared first, so this can
// accumulate s ⊕ tHᵀ in place: the trial-syndrome operation of the BP-SF
// decoder.
func (m *Mat) MulSupportInto(dst gf2.Vec, support []int) {
	if dst.Len() != m.rows {
		panic("sparse: MulSupportInto dimension mismatch")
	}
	for _, j := range support {
		for _, i := range m.ColSupport(j) {
			dst.Flip(int(i))
		}
	}
}

// Transpose returns mᵀ.
func (m *Mat) Transpose() *Mat {
	b := NewBuilder(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for _, j := range m.RowSupport(i) {
			b.Set(int(j), i)
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
			for _, j := range other.RowSupport(int(k)) {
				b.Flip(i, int(j))
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
					out.Set(i*b.rows+bi, int(j)*b.cols+int(bj))
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
			out.Set(i, int(j))
		}
		for _, j := range b.RowSupport(i) {
			out.Set(i, a.cols+int(j))
		}
	}
	return out.Build()
}

// ToDense converts to a gf2 dense matrix.
func (m *Mat) ToDense() *gf2.Mat {
	d := gf2.NewMat(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for _, j := range m.RowSupport(i) {
			d.Set(i, int(j), true)
		}
	}
	return d
}

// Equal reports whether two sparse matrices have the same shape and entries.
func (m *Mat) Equal(b *Mat) bool {
	return m.rows == b.rows && m.cols == b.cols &&
		slices.Equal(m.rowPtr, b.rowPtr) && slices.Equal(m.colIdx, b.colIdx)
}

// String renders a small matrix for debugging.
func (m *Mat) String() string {
	return fmt.Sprintf("sparse.Mat %dx%d nnz=%d", m.rows, m.cols, m.NNZ())
}
