// Package code defines CSS and subsystem stabilizer codes as decoding
// problems: parity-check matrices, logical operators, and the
// degeneracy-aware logical-failure test used throughout the evaluation.
//
// Conventions (matching the paper's §II):
//   - HX has one row per X-type stabilizer generator; its entries mark the
//     qubits on which the generator acts as Pauli X. X stabilizers detect
//     Z errors.
//   - HZ has one row per Z-type stabilizer generator; Z stabilizers detect
//     X errors.
//   - CSS validity requires HX·HZᵀ = 0.
//   - An X-type error e (a bit vector over qubits) has syndrome HZ·e and is
//     logically trivial iff it lies in the row space of HX. Failure is
//     detected by the bare Z logical operators: e is a logical error iff
//     LZ·e ≠ 0 for a syndrome-free residual e.
package code

import (
	"fmt"

	"bpsf/internal/gf2"
	"bpsf/internal/sparse"
)

// CSS is a CSS stabilizer code (or a CSS-type subsystem code when Gauge
// matrices are present). The zero value is not usable; construct with
// NewCSS or NewSubsystem.
type CSS struct {
	// Name is a human-readable label like "BB [[144,12,12]]".
	Name string
	// N is the number of physical qubits, K the number of logical qubits.
	// D is the design distance (trusted from the construction; not
	// recomputed, since distance computation is NP-hard).
	N, K, D int

	// HX and HZ are the stabilizer check matrices.
	HX, HZ *sparse.Mat

	// GX and GZ are the measured check matrices: what the syndrome
	// extraction circuit actually measures each round. For a plain CSS code
	// they equal HX and HZ. For a subsystem code they are the gauge
	// generator matrices, and CombX/CombZ express each stabilizer as an
	// XOR-combination of gauge outcomes: HX = CombX·GX over GF(2) row
	// composition (CombX is |stab| × |gauge|).
	GX, GZ       *sparse.Mat
	CombX, CombZ *sparse.Mat

	// LX and LZ are bare logical operator representatives (K rows each).
	// LX[i] anticommutes with LZ[i] and commutes with all stabilizers and
	// (for subsystem codes) all gauge operators.
	LX, LZ *sparse.Mat

	// EquivX is the modulo-group for X errors: row space membership means
	// the error acts trivially. For CSS codes it is HX; for subsystem codes
	// it is the full X gauge group GX. EquivZ symmetrically.
	EquivX, EquivZ *sparse.Mat
}

// NewCSS builds a CSS code from its stabilizer check matrices, computing K
// and the logical operators. Name and design distance d are recorded as
// given. It returns an error if the matrices do not describe a valid CSS
// code (shape mismatch or HX·HZᵀ ≠ 0).
func NewCSS(name string, hx, hz *sparse.Mat, d int) (*CSS, error) {
	if hx.Cols() != hz.Cols() {
		return nil, fmt.Errorf("code: HX has %d columns, HZ has %d", hx.Cols(), hz.Cols())
	}
	if err := checkCommute(hx, hz); err != nil {
		return nil, err
	}
	n := hx.Cols()
	hxD, hzD := hx.ToDense(), hz.ToDense()
	k := n - gf2.Rank(hxD) - gf2.Rank(hzD)
	lx := gf2.QuotientBasis(hzD, hxD) // X logicals: ker(HZ) / rowspace(HX)
	lz := gf2.QuotientBasis(hxD, hzD)
	if lx.Rows() != k || lz.Rows() != k {
		return nil, fmt.Errorf("code: logical count mismatch: k=%d, |LX|=%d, |LZ|=%d", k, lx.Rows(), lz.Rows())
	}
	c := &CSS{
		Name: name, N: n, K: k, D: d,
		HX: hx, HZ: hz,
		GX: hx, GZ: hz,
		CombX:  sparse.Identity(hx.Rows()),
		CombZ:  sparse.Identity(hz.Rows()),
		LX:     sparse.FromDense(lx),
		LZ:     sparse.FromDense(pairLogicals(lx, lz)),
		EquivX: hx,
		EquivZ: hz,
	}
	return c, nil
}

// NewSubsystem builds a CSS-type subsystem code from its gauge generator
// matrices gx, gz and stabilizer combination maps combX, combZ (stabilizer
// i = XOR of gauge outcomes in row i of comb). The stabilizer matrices are
// derived as comb·g. Errors are corrected modulo the full gauge group.
func NewSubsystem(name string, gx, gz, combX, combZ *sparse.Mat, d int) (*CSS, error) {
	if gx.Cols() != gz.Cols() {
		return nil, fmt.Errorf("code: GX has %d columns, GZ has %d", gx.Cols(), gz.Cols())
	}
	if combX.Cols() != gx.Rows() {
		return nil, fmt.Errorf("code: CombX has %d columns, GX has %d rows", combX.Cols(), gx.Rows())
	}
	if combZ.Cols() != gz.Rows() {
		return nil, fmt.Errorf("code: CombZ has %d columns, GZ has %d rows", combZ.Cols(), gz.Rows())
	}
	hx := combX.Mul(gx)
	hz := combZ.Mul(gz)
	// stabilizers must commute with the opposite gauge group
	if err := checkCommute(hx, gz); err != nil {
		return nil, fmt.Errorf("code: X stabilizers vs Z gauge: %w", err)
	}
	if err := checkCommute(gx, hz); err != nil {
		return nil, fmt.Errorf("code: X gauge vs Z stabilizers: %w", err)
	}
	n := gx.Cols()
	gxD, gzD := gx.ToDense(), gz.ToDense()
	// bare logicals: commute with the full opposite gauge group, modulo own
	// gauge group
	lx := gf2.QuotientBasis(gzD, gxD)
	lz := gf2.QuotientBasis(gxD, gzD)
	if lx.Rows() != lz.Rows() {
		return nil, fmt.Errorf("code: bare logical count mismatch |LX|=%d |LZ|=%d", lx.Rows(), lz.Rows())
	}
	c := &CSS{
		Name: name, N: n, K: lx.Rows(), D: d,
		HX: hx, HZ: hz,
		GX: gx, GZ: gz,
		CombX: combX, CombZ: combZ,
		LX:     sparse.FromDense(lx),
		LZ:     sparse.FromDense(pairLogicals(lx, lz)),
		EquivX: gx,
		EquivZ: gz,
	}
	return c, nil
}

// checkCommute verifies a·bᵀ = 0 over GF(2).
func checkCommute(a, b *sparse.Mat) error {
	prod := a.Mul(b.Transpose())
	if prod.NNZ() != 0 {
		return fmt.Errorf("code: commutation violated (%d anticommuting pairs)", prod.NNZ())
	}
	return nil
}

// pairLogicals re-bases lz so that LX[i]·LZ[j] = δij, giving a symplectic
// logical basis. lx is left as-is. If pairing fails (should not happen for
// valid inputs) lz is returned unchanged.
func pairLogicals(lx, lz *gf2.Mat) *gf2.Mat {
	k := lx.Rows()
	if k == 0 || lz.Rows() != k {
		return lz
	}
	// M[i][j] = <lx_i, lz_j>; find invertible M and replace lz by M⁻¹ᵀ·lz
	m := gf2.NewMat(k, k)
	for i := 0; i < k; i++ {
		xi := lx.Row(i)
		for j := 0; j < k; j++ {
			if xi.Dot(lz.Row(j)) {
				m.Set(i, j, true)
			}
		}
	}
	inv, ok := invert(m)
	if !ok {
		return lz
	}
	// new lz rows: lz'_i = Σ_j inv[j][i]... we need <lx_i, lz'_j> = δij,
	// lz' = (M⁻¹)ᵀ·lz gives <lx_i, lz'_j> = Σ_t inv[t][j]·M[i][t] = (M·M⁻¹)[i][j].
	return inv.Transpose().Mul(lz)
}

// invert returns the inverse of a square GF(2) matrix, or ok=false if it is
// singular: [m | I] reduces to [I | m⁻¹] with pivots limited to the left
// block.
func invert(m *gf2.Mat) (*gf2.Mat, bool) {
	n := m.Rows()
	if m.Cols() != n {
		return nil, false
	}
	aug := gf2.HStack(m, gf2.Identity(n))
	if len(aug.RREF(n, nil)) < n {
		return nil, false
	}
	inv := gf2.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if aug.Get(i, n+j) {
				inv.Set(i, j, true)
			}
		}
	}
	return inv, true
}
