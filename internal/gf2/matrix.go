package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

// Mat is a dense bit-packed matrix over GF(2), stored row-major with a
// fixed word stride per row. The zero value is an empty matrix; use NewMat.
type Mat struct {
	rows, cols int
	stride     int // words per row
	data       []uint64
}

// NewMat returns a zero rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("gf2: negative matrix dimension")
	}
	m := &Mat{}
	m.Reset(rows, cols)
	return m
}

// Reset reshapes m to a zero rows×cols matrix, reusing its storage when
// that is large enough, so a workspace refilled on every call allocates
// only when it grows. The zero Mat is a valid workspace.
func (m *Mat) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("gf2: negative matrix dimension")
	}
	m.rows, m.cols, m.stride = rows, cols, wordsFor(cols)
	if n := rows * m.stride; cap(m.data) < n {
		m.data = make([]uint64, n)
	} else {
		m.data = m.data[:n]
		clear(m.data)
	}
}

// MatFromRows builds a matrix from a slice of 0/1 int rows. All rows must
// have the same length.
func MatFromRows(rows [][]int) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("gf2: ragged rows")
		}
		for j, b := range r {
			if b&1 == 1 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, true)
	}
	return m
}

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Mat) Cols() int { return m.cols }

// Get reports whether entry (i, j) is set.
func (m *Mat) Get(i, j int) bool {
	return m.data[i*m.stride+j/wordBits]>>(uint(j)%wordBits)&1 == 1
}

// Set sets entry (i, j).
func (m *Mat) Set(i, j int, b bool) {
	w := &m.data[i*m.stride+j/wordBits]
	if b {
		*w |= 1 << (uint(j) % wordBits)
	} else {
		*w &^= 1 << (uint(j) % wordBits)
	}
}

// Flip toggles entry (i, j).
func (m *Mat) Flip(i, j int) {
	m.data[i*m.stride+j/wordBits] ^= 1 << (uint(j) % wordBits)
}

// rowWords returns the word slice backing row i.
func (m *Mat) rowWords(i int) []uint64 {
	return m.data[i*m.stride : (i+1)*m.stride]
}

// RowView returns row i as a Vec over m's own storage: nothing is copied,
// and writes through the view change m.
func (m *Mat) RowView(i int) Vec {
	return Vec{n: m.cols, w: m.rowWords(i)}
}

// Row returns a copy of row i as a Vec.
func (m *Mat) Row(i int) Vec {
	v := NewVec(m.cols)
	copy(v.w, m.rowWords(i))
	return v
}

// SetRow overwrites row i with vector v (lengths must match).
func (m *Mat) SetRow(i int, v Vec) {
	if v.n != m.cols {
		panic(fmt.Sprintf("gf2: SetRow length mismatch %d != %d", v.n, m.cols))
	}
	copy(m.rowWords(i), v.w)
}

// Col returns a copy of column j as a Vec of length Rows().
func (m *Mat) Col(j int) Vec {
	v := NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		if m.Get(i, j) {
			v.Set(i, true)
		}
	}
	return v
}

// XorRows sets row dst ^= row src.
func (m *Mat) XorRows(dst, src int) {
	d := m.rowWords(dst)
	s := m.rowWords(src)
	for k := range d {
		d[k] ^= s[k]
	}
}

// SwapRows exchanges rows i and j.
func (m *Mat) SwapRows(i, j int) {
	if i == j {
		return
	}
	a, b := m.rowWords(i), m.rowWords(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// RowWeight returns the Hamming weight of row i.
func (m *Mat) RowWeight(i int) int {
	return m.RowView(i).Weight()
}

// MulVec returns m · x (column vector product); x must have length Cols().
func (m *Mat) MulVec(x Vec) Vec {
	if x.n != m.cols {
		panic(fmt.Sprintf("gf2: MulVec dimension mismatch %d != %d", x.n, m.cols))
	}
	out := NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		r := m.RowView(i)
		if r.Dot(x) {
			out.Set(i, true)
		}
	}
	return out
}

// Mul returns the matrix product m · b.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.cols != b.rows {
		panic(fmt.Sprintf("gf2: Mul dimension mismatch %d != %d", m.cols, b.rows))
	}
	out := NewMat(m.rows, b.cols)
	// Accumulate rows of b for each set bit in the corresponding row of m.
	for i := 0; i < m.rows; i++ {
		dst := out.rowWords(i)
		row := m.rowWords(i)
		for wi, w := range row {
			for w != 0 {
				k := wi*wordBits + trailingZeros(w)
				w &= w - 1
				src := b.rowWords(k)
				for t := range dst {
					dst[t] ^= src[t]
				}
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func (m *Mat) Transpose() *Mat {
	out := NewMat(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.rowWords(i)
		for wi, w := range row {
			for w != 0 {
				j := wi*wordBits + trailingZeros(w)
				w &= w - 1
				out.Set(j, i, true)
			}
		}
	}
	return out
}

// Clone returns an independent copy of m.
func (m *Mat) Clone() *Mat {
	out := &Mat{rows: m.rows, cols: m.cols, stride: m.stride, data: make([]uint64, len(m.data))}
	copy(out.data, m.data)
	return out
}

// Equal reports whether m and b have identical shape and entries.
func (m *Mat) Equal(b *Mat) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every entry is zero.
func (m *Mat) IsZero() bool {
	for _, w := range m.data {
		if w != 0 {
			return false
		}
	}
	return true
}

// HStack returns [m | b] (horizontal concatenation; equal row counts).
func HStack(m, b *Mat) *Mat {
	if m.rows != b.rows {
		panic("gf2: HStack row mismatch")
	}
	out := NewMat(m.rows, m.cols+b.cols)
	for i := 0; i < m.rows; i++ {
		for _, j := range m.RowView(i).Support() {
			out.Set(i, j, true)
		}
		for _, j := range b.RowView(i).Support() {
			out.Set(i, m.cols+j, true)
		}
	}
	return out
}

// VStack returns [m ; b] (vertical concatenation; equal column counts).
func VStack(m, b *Mat) *Mat {
	if m.cols != b.cols {
		panic("gf2: VStack column mismatch")
	}
	out := NewMat(m.rows+b.rows, m.cols)
	copy(out.data[:m.rows*out.stride], m.data)
	copy(out.data[m.rows*out.stride:], b.data)
	return out
}

// Kron returns the Kronecker product m ⊗ b.
func Kron(m, b *Mat) *Mat {
	out := NewMat(m.rows*b.rows, m.cols*b.cols)
	for i := 0; i < m.rows; i++ {
		for _, j := range m.RowView(i).Support() {
			for bi := 0; bi < b.rows; bi++ {
				for _, bj := range b.RowView(bi).Support() {
					out.Set(i*b.rows+bi, j*b.cols+bj, true)
				}
			}
		}
	}
	return out
}

// String renders the matrix as rows of 0/1 characters.
func (m *Mat) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteString(m.RowView(i).String())
		if i != m.rows-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
