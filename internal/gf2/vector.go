// Package gf2 implements dense bit-packed linear algebra over GF(2).
//
// It provides the exact-arithmetic substrate used throughout the decoder
// stack: ordered-statistics decoding (Gaussian elimination / RREF), logical
// operator computation for stabilizer codes (kernel and quotient bases), and
// construction-time validation of parity-check matrices.
//
// Vectors and matrices pack 64 bits per machine word. All operations are
// exact; there is no floating point in this package.
package gf2

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// wordsFor returns the number of 64-bit words needed to hold n bits.
func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Vec is a bit vector over GF(2). The zero value is an empty vector; use
// NewVec to create one with a given length.
type Vec struct {
	n int
	w []uint64
}

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec {
	if n < 0 {
		panic("gf2: negative vector length")
	}
	return Vec{n: n, w: make([]uint64, wordsFor(n))}
}

// VecFromInts builds a vector from a slice of 0/1 ints.
func VecFromInts(bits []int) Vec {
	v := NewVec(len(bits))
	for i, b := range bits {
		if b&1 == 1 {
			v.Set(i, true)
		}
	}
	return v
}

// VecFromSupport builds a length-n vector with ones at the given positions.
func VecFromSupport(n int, support []int) Vec {
	v := NewVec(n)
	for _, i := range support {
		v.Set(i, true)
	}
	return v
}

// Len returns the number of bits in the vector.
func (v Vec) Len() int { return v.n }

// Get reports whether bit i is set.
func (v Vec) Get(i int) bool {
	return v.w[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to the given value.
func (v Vec) Set(i int, b bool) {
	if b {
		v.w[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.w[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

// Flip toggles bit i.
func (v Vec) Flip(i int) {
	v.w[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Xor sets v ^= u. The vectors must have equal length.
func (v Vec) Xor(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: Xor length mismatch %d != %d", v.n, u.n))
	}
	for i := range v.w {
		v.w[i] ^= u.w[i]
	}
}

// And sets v &= u. The vectors must have equal length.
func (v Vec) And(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: And length mismatch %d != %d", v.n, u.n))
	}
	for i := range v.w {
		v.w[i] &= u.w[i]
	}
}

// Zero clears all bits.
func (v Vec) Zero() {
	for i := range v.w {
		v.w[i] = 0
	}
}

// IsZero reports whether all bits are clear.
func (v Vec) IsZero() bool {
	for _, w := range v.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Weight returns the Hamming weight (number of set bits).
func (v Vec) Weight() int {
	n := 0
	for _, w := range v.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Dot returns the GF(2) inner product <v, u> (parity of the AND).
func (v Vec) Dot(u Vec) bool {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: Dot length mismatch %d != %d", v.n, u.n))
	}
	var acc uint64
	for i := range v.w {
		acc ^= v.w[i] & u.w[i]
	}
	return bits.OnesCount64(acc)&1 == 1
}

// Clone returns an independent copy of v.
func (v Vec) Clone() Vec {
	u := Vec{n: v.n, w: make([]uint64, len(v.w))}
	copy(u.w, v.w)
	return u
}

// CopyFrom overwrites v with the contents of u (equal lengths required).
func (v Vec) CopyFrom(u Vec) {
	if v.n != u.n {
		panic(fmt.Sprintf("gf2: CopyFrom length mismatch %d != %d", v.n, u.n))
	}
	copy(v.w, u.w)
}

// Equal reports whether v and u are identical bit vectors.
func (v Vec) Equal(u Vec) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.w {
		if v.w[i] != u.w[i] {
			return false
		}
	}
	return true
}

// ByteLen returns the number of bytes needed to serialize v (8 bits per
// byte, LSB first).
func (v Vec) ByteLen() int { return (v.n + 7) / 8 }

// Words returns the vector's backing words (bit i of Words()[i/64] is
// bit i of the vector; tail bits beyond Len are zero). The slice aliases
// the vector: only the vector's owner may write through it, and it must
// keep the tail bits zero. It exists for word-at-a-time consumers like
// the union-find decoder, which walks a syndrome's set bits without the
// per-bit Get loop or the allocation Support would cost, and the BP
// decoder, which builds its hard decision a word at a time.
func (v Vec) Words() []uint64 { return v.w }

// AppendBytes appends the vector's packed bits to dst — ByteLen bytes,
// little-endian bit order within each byte — and returns the extended
// slice. The wire format of the decode service.
func (v Vec) AppendBytes(dst []byte) []byte {
	nb := v.ByteLen()
	for i := 0; i < nb; i++ {
		dst = append(dst, byte(v.w[i/8]>>(8*(uint(i)%8))))
	}
	return dst
}

// SetBytes overwrites v from the packed representation produced by
// AppendBytes. b must hold exactly ByteLen bytes; pad bits beyond Len in
// the final byte are discarded.
func (v Vec) SetBytes(b []byte) error {
	if len(b) != v.ByteLen() {
		return fmt.Errorf("gf2: SetBytes length %d, want %d", len(b), v.ByteLen())
	}
	for i := range v.w {
		v.w[i] = 0
	}
	for i, x := range b {
		v.w[i/8] |= uint64(x) << (8 * (uint(i) % 8))
	}
	if r := uint(v.n) % wordBits; r != 0 && len(v.w) > 0 {
		v.w[len(v.w)-1] &= ^uint64(0) >> (wordBits - r)
	}
	return nil
}

// Support returns the sorted indices of set bits.
func (v Vec) Support() []int {
	out := make([]int, 0, v.Weight())
	for wi, w := range v.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Ints returns the vector as a slice of 0/1 ints.
func (v Vec) Ints() []int {
	out := make([]int, v.n)
	for _, i := range v.Support() {
		out[i] = 1
	}
	return out
}

// String renders the vector as a 0/1 string, LSB first.
func (v Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
