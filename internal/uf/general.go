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
				for _, b := range d.h.RowSupport(int(c)) {
					if d.inGraph[b] {
						continue
					}
					d.inGraph[b] = true
					progress = true
					cur = d.find(cur)
					d.clEdges[cur] = append(d.clEdges[cur], b)
					d.dirty[cur] = true
					for _, c2 := range d.h.ColSupport(int(b)) {
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
// The augmented system [H_cluster | s] (row = cluster check, column =
// interior bit, syndrome column last) is written straight into the
// decoder's workspace and reduced in place by gf2.Mat.RREF, pivots limited
// to the bit columns. A nonzero syndrome bit past the rank means the
// cluster is not yet solvable; otherwise the solution, free variables
// zero, is read off the pivot rows. Warm, the solve allocates nothing.
func (d *Decoder) trySolve(r int32) bool {
	checks := d.vlist(r)
	bits := d.clEdges[r]
	sc := len(bits) // the syndrome column
	d.aug.Reset(len(checks), sc+1)
	for li, c := range checks {
		d.localRow[c] = int32(li)
		if d.defect[c] {
			d.aug.Set(li, sc, true)
		}
	}
	// every check of an interior bit is in the cluster, so localRow is
	// current for all of them; entries of other checks are never read
	for lj, b := range bits {
		for _, c := range d.h.ColSupport(int(b)) {
			d.aug.Set(int(d.localRow[c]), lj, true)
		}
	}
	d.pivots = d.aug.RREF(sc, d.pivots)
	for i := len(d.pivots); i < len(checks); i++ {
		if d.aug.Get(i, sc) {
			return false
		}
	}
	sol := d.solBits[r][:0]
	for k, lj := range d.pivots {
		if d.aug.Get(k, sc) {
			sol = append(sol, bits[lj])
		}
	}
	d.solBits[r] = sol
	d.solved[r] = true
	return true
}
