package uf

import "bpsf/internal/gf2"

// General-graph path: clusters live on checks, growth absorbs whole bits
// (a bit joins a cluster together with every check it touches, so absorbed
// bits are always interior), and a cluster is neutral when the syndrome
// restricted to its checks is solvable over its interior bits by GF(2)
// elimination. Because bits are interior, per-cluster solutions compose:
// the union of the local solutions reproduces the global syndrome exactly.

// growGeneral alternates growth sweeps and local solve attempts until
// every cluster is neutral, then writes the composed correction. It
// returns false only for inconsistent syndromes (a cluster that consumed
// its whole connected component and still has no solution).
func (d *Decoder) growGeneral(res *Result) bool {
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
			if !d.trySolve(r) {
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
func (d *Decoder) trySolve(r int32) bool {
	checks := d.vlist(r)
	bits := d.clEdges[r]
	for lj, b := range bits {
		d.localCol[b] = int32(lj)
	}
	sub := gf2.NewMat(len(checks), len(bits))
	rhs := gf2.NewVec(len(checks))
	for li, c := range checks {
		if d.defect[c] {
			rhs.Set(li, true)
		}
		for _, b := range d.checkBits[c] {
			// bits outside the cluster stay zero globally: a bit absorbed
			// elsewhere would have pulled this check into its own cluster
			if lj := d.localCol[b]; lj >= 0 {
				sub.Set(li, int(lj), true)
			}
		}
	}
	x, ok := gf2.Solve(sub, rhs)
	for _, b := range bits {
		d.localCol[b] = -1
	}
	if !ok {
		return false
	}
	sol := d.solBits[r][:0]
	for _, lj := range x.Support() {
		sol = append(sol, bits[lj])
	}
	d.solBits[r] = sol
	d.solved[r] = true
	return true
}
