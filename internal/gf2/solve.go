package gf2

// RREF reduces m in place to reduced row echelon form and returns the
// pivot column of each of its first rank rows, appended to pivots[:0]; the
// rank is the length of the result.
//
// Pivots are picked in natural column order among the first pivotCols
// columns only, while row operations span every column, so the columns
// from pivotCols on ride along as right-hand sides. For an augmented
// system [A | b] reduced with pivotCols = A.Cols(), a row at or past the
// rank that holds a 1 in b marks the system inconsistent; otherwise
// x[pivots[i]] = b[i], with free variables zero, solves A·x = b. The
// reduction stops once every row holds a pivot.
//
// The RREF of a matrix is unique, so the result does not depend on which
// row is picked as each pivot. Rows at or below the current pivot row are
// zero left of its column, so swaps and XORs start at the pivot's word.
// RREF allocates only when pivots lacks the capacity for the rank.
func (m *Mat) RREF(pivotCols int, pivots []int) []int {
	if pivotCols < 0 || pivotCols > m.cols {
		panic("gf2: RREF pivot columns out of range")
	}
	rows, stride, data := m.rows, m.stride, m.data
	pivots = pivots[:0]
	for col := 0; col < pivotCols && len(pivots) < rows; col++ {
		w, bit := col/wordBits, uint64(1)<<(uint(col)%wordBits)
		row := len(pivots)
		sel, off := row, row*stride+w
		for sel < rows && data[off]&bit == 0 {
			sel, off = sel+1, off+stride
		}
		if sel == rows {
			continue
		}
		pr := data[row*stride+w : (row+1)*stride]
		if sel != row {
			sr := data[sel*stride+w : (sel+1)*stride]
			for k := range pr {
				pr[k], sr[k] = sr[k], pr[k]
			}
		}
		for i, off := 0, w; i < rows; i, off = i+1, off+stride {
			if i != row && data[off]&bit != 0 {
				ri := data[off : off+len(pr)]
				for k := range pr {
					ri[k] ^= pr[k]
				}
			}
		}
		pivots = append(pivots, col)
	}
	return pivots
}

// Rank returns the GF(2) rank of a.
func Rank(a *Mat) int {
	return len(a.Clone().RREF(a.cols, nil))
}

// NullspaceBasis returns a basis (as matrix rows) of {x : a·x = 0}.
// The basis has a.Cols() − Rank(a) rows.
func NullspaceBasis(a *Mat) *Mat {
	r := a.Clone()
	pivots := r.RREF(a.cols, nil)
	free := make([]int, 0, a.cols-len(pivots))
	for j, k := 0, 0; j < a.cols; j++ {
		if k < len(pivots) && pivots[k] == j {
			k++
			continue
		}
		free = append(free, j)
	}
	basis := NewMat(len(free), a.cols)
	for bi, fj := range free {
		basis.Set(bi, fj, true)
		// pivot variables determined by the free column's entries
		for i, col := range pivots {
			if r.Get(i, fj) {
				basis.Set(bi, col, true)
			}
		}
	}
	return basis
}
