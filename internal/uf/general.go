package uf

// General-graph path: clusters live on checks, growth absorbs whole bits
// (a bit joins a cluster together with every check it touches, so absorbed
// bits are always interior), and a cluster is neutral when the syndrome
// restricted to its checks is solvable over its interior bits by GF(2)
// elimination. Because bits are interior, per-cluster solutions compose:
// the union of the local solutions reproduces the global syndrome exactly.

// growGeneral alternates growth sweeps and local solve attempts (solve is
// (*Decoder).trySolve; tests pass a reference solver) until every cluster
// is neutral, then writes the composed correction. It returns false only
// for inconsistent syndromes (a cluster that consumed its whole connected
// component and still has no solution).
func (d *Decoder) growGeneral(res *Result, solve func(*Decoder, int32) bool) bool {
	for {
		roots := d.activeRoots()
		anyActive := false
		for _, r := range roots {
			if d.find(r) != r || d.solved[r] {
				continue
			}
			anyActive = true
		}
		if !anyActive {
			for _, r := range roots {
				for _, b := range d.solBits[r] {
					d.errHat.Set(int(b), true)
				}
			}
			res.Clusters = len(roots)
			return true
		}

		// grow every unsolved cluster by one layer
		progress := false
		for _, r := range roots {
			if d.find(r) != r || d.solved[r] {
				continue
			}
			vs := append(d.snapshot[:0], d.vlist(r)...)
			cur := r
			for _, c := range vs {
				for _, b := range d.checkBits[c] {
					if d.inGraph[b] {
						continue
					}
					d.inGraph[b] = true
					progress = true
					cur = d.find(cur)
					d.clEdges[cur] = append(d.clEdges[cur], b)
					d.dirty[cur] = true
					for _, c2 := range d.bitChecks[b] {
						cur = d.union(cur, c2)
					}
				}
			}
			d.snapshot = vs[:0]
		}

		// solve attempts on the post-growth clusters; a cluster unchanged
		// since its last failed attempt (not dirty) cannot have become
		// solvable, so the elimination is skipped
		solvedAll := true
		for _, r := range d.activeRoots() {
			if d.solved[r] {
				continue
			}
			if !d.dirty[r] {
				solvedAll = false
				continue
			}
			d.dirty[r] = false
			if !solve(d, r) {
				solvedAll = false
			}
		}
		if !solvedAll && !progress {
			return false
		}
		res.GrowthRounds++
	}
}

// trySolve attempts to neutralize cluster r: solve H[checks, bits]·x =
// s[checks] over the cluster's interior bits. On success the local
// solution columns are recorded for final extraction.
//
// The augmented system [H_cluster | s] is written straight into the
// decoder's row-major word workspace (row = cluster check, column = interior
// bit, syndrome column last) and reduced in place to reduced row echelon
// form. The RREF of a matrix is unique, and with free variables set to zero
// so is the solution read off its pivot rows, so the result does not depend
// on which row serves as each pivot. Warm, the solve allocates nothing.
func (d *Decoder) trySolve(r int32) bool {
	checks := d.vlist(r)
	bits := d.clEdges[r]
	rows, sc := len(checks), len(bits) // sc: the syndrome column
	stride := sc/64 + 1
	if need := rows * stride; cap(d.aug) < need {
		d.aug = make([]uint64, need)
	}
	aug := d.aug[:rows*stride]
	clear(aug)
	sw, sm := sc/64, uint64(1)<<(sc%64)
	for li, c := range checks {
		d.localRow[c] = int32(li)
		if d.defect[c] {
			aug[li*stride+sw] |= sm
		}
	}
	// every check of an interior bit is in the cluster, so localRow is
	// current for all of them; entries of other checks are never read
	for lj, b := range bits {
		w, m := lj/64, uint64(1)<<(lj%64)
		for _, c := range d.bitChecks[b] {
			aug[int(d.localRow[c])*stride+w] |= m
		}
	}

	// Gauss–Jordan in natural column order. Rows at or below the pivot row
	// are zero left of the current column, so swaps and XORs start at the
	// pivot's word.
	piv := d.pivots[:0]
	for col := 0; col <= sc && len(piv) < rows; col++ {
		w, m := col/64, uint64(1)<<(col%64)
		row := len(piv)
		sel, off := row, row*stride+w
		for sel < rows && aug[off]&m == 0 {
			sel, off = sel+1, off+stride
		}
		if sel == rows {
			continue
		}
		if col == sc {
			d.pivots = piv
			return false // a pivot in the syndrome column: inconsistent
		}
		pr := aug[row*stride+w : (row+1)*stride]
		if sel != row {
			sr := aug[sel*stride+w : (sel+1)*stride]
			for k := range pr {
				pr[k], sr[k] = sr[k], pr[k]
			}
		}
		for i, off := 0, w; i < rows; i, off = i+1, off+stride {
			if aug[off]&m != 0 && i != row {
				ri := aug[off : off+len(pr)]
				for k := range pr {
					ri[k] ^= pr[k]
				}
			}
		}
		piv = append(piv, int32(col))
	}
	d.pivots = piv

	sol := d.solBits[r][:0]
	for k, lj := range piv {
		if aug[k*stride+sw]&sm != 0 {
			sol = append(sol, bits[lj])
		}
	}
	d.solBits[r] = sol
	d.solved[r] = true
	return true
}
