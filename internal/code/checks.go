package code

import (
	"bpsf/internal/gf2"
	"bpsf/internal/sparse"
)

// SyndromeOfX returns the syndrome HZ·e of an X-type error pattern e
// (Z-type stabilizers detect X errors).
func (c *CSS) SyndromeOfX(e gf2.Vec) gf2.Vec { return c.HZ.MulVec(e) }

// SyndromeOfZ returns the syndrome HX·e of a Z-type error pattern e.
func (c *CSS) SyndromeOfZ(e gf2.Vec) gf2.Vec { return c.HX.MulVec(e) }

// SyndromeOfXInto computes HZ·e into dst — the allocation-free variant used
// by the sharded Monte-Carlo engine.
func (c *CSS) SyndromeOfXInto(dst, e gf2.Vec) { c.HZ.MulVecInto(dst, e) }

// SyndromeOfZInto computes HX·e into dst.
func (c *CSS) SyndromeOfZInto(dst, e gf2.Vec) { c.HX.MulVecInto(dst, e) }

// IsLogicalX reports whether the X-type residual r (which must be
// syndrome-free: HZ·r = 0) acts as a logical operator, i.e. anticommutes
// with some bare Z logical. Because the logical bases are paired
// symplectically, this is exactly membership outside the X equivalence
// group.
func (c *CSS) IsLogicalX(r gf2.Vec) bool { return !c.LZ.MulVec(r).IsZero() }

// IsLogicalZ reports whether the Z-type residual r (with HX·r = 0)
// anticommutes with some bare X logical.
func (c *CSS) IsLogicalZ(r gf2.Vec) bool { return !c.LX.MulVec(r).IsZero() }

// CheckValid re-verifies the code's internal consistency; it is used by
// construction tests. It confirms CSS commutation, logical commutation with
// stabilizers and gauge groups, and the symplectic pairing LX[i]·LZ[j]=δij.
func (c *CSS) CheckValid() error {
	if err := checkCommute(c.HX, c.HZ); err != nil {
		return err
	}
	if err := checkCommute(c.LX, c.GZ); err != nil {
		return err
	}
	if err := checkCommute(c.GX, c.LZ); err != nil {
		return err
	}
	// pairing
	lxD, lzD := c.LX.ToDense(), c.LZ.ToDense()
	for i := 0; i < c.K; i++ {
		for j := 0; j < c.K; j++ {
			want := i == j
			if lxD.Row(i).Dot(lzD.Row(j)) != want {
				return errPairing(i, j)
			}
		}
	}
	return nil
}

type pairingError struct{ i, j int }

func errPairing(i, j int) error { return pairingError{i, j} }

func (e pairingError) Error() string {
	return "code: logical pairing LX·LZᵀ is not the identity"
}

// Dims returns (rows of the X-error decoding problem, columns). The X-error
// decoding problem uses HZ as its parity-check matrix.
func (c *CSS) Dims() (checksX, checksZ int) {
	return c.HZ.Rows(), c.HX.Rows()
}

// Validate performs NewCSS-level validation on externally supplied matrices
// without building a code; helper for tools.
func Validate(hx, hz *sparse.Mat) error { return checkCommute(hx, hz) }
