// Package frame implements bit-packed batch syndrome sampling: the Pauli
// frames of 64 Monte-Carlo shots propagate simultaneously through a noisy
// stabilizer circuit — or fire simultaneously from a detector error model —
// as single uint64 words, one bit lane per shot (stim-style word
// parallelism).
//
// The package covers the whole sampling hot path of the circuit-level
// pipeline: circuit noise application (geometric skipping across the 64
// lanes of each noise channel), stabilizer-measurement sampling (frame
// collapse at M/MR/R), and the detector/observable layout declared on the
// circuit by package memexp. Sampled blocks live in detector-major words
// (Batch); a 64×64 bit-matrix transpose (Pack) re-emits them as per-shot
// packed byte rows in exactly the gf2.Vec.SetBytes / AppendBytes wire
// layout, so decoders and the decode service consume batch-sampled shots
// without any per-bit shuffling.
//
// Two samplers share the Batch/Packed machinery:
//
//   - CircuitSampler: 64-shot word-parallel Pauli-frame simulation of a
//     circuit.
//   - DEMSampler: the word-parallel writer of dem.Blocks, the one DEM
//     mechanism-sampling algorithm (dem.Sampler reads the same lanes shot
//     by shot).
//
// The tests hold both to identical statistics against one-shot-at-a-time
// references of the same stochastic processes.
//
// Determinism contract (DESIGN.md §8): every sampler is a deterministic
// function of (its construction arguments, seed); blocks are always drawn
// 64 shots at a time in lane order, so shot i of a stream lives in lane
// i mod 64 of block i/64 regardless of how the caller consumes the block.
package frame

import (
	"encoding/binary"
	"fmt"

	"bpsf/internal/dem"
)

// BlockShots is the number of shots sampled per block: the lane count of a
// 64-bit word.
const BlockShots = dem.BlockShots

// Batch holds one block of sampled shots in detector-major words: bit lane
// s of Dets[d] reports whether detector d fired in shot s, and bit lane s
// of Obs[o] whether observable o was flipped. Samplers fill all 64 lanes;
// Shots records how many of them the producer considers valid (always
// BlockShots for the package's samplers, smaller in tests and fuzzing).
type Batch struct {
	Shots int
	Dets  []uint64
	Obs   []uint64
}

// Reset sizes the batch for numDets detectors and numObs observables and
// clears every word, marking all BlockShots lanes valid.
func (b *Batch) Reset(numDets, numObs int) {
	b.Shots = BlockShots
	b.Dets = resizeWords(b.Dets, numDets)
	b.Obs = resizeWords(b.Obs, numObs)
}

// LaneMask returns the valid-lane mask of the batch: bits [0, Shots).
// Consumers that read Dets/Obs word-wise on a ragged tail (Shots < 64)
// must mask with it — lanes at or beyond Shots are dead and may hold
// garbage when the batch was produced by anything other than the
// package's samplers (which always fill and mark all 64 lanes).
func (b *Batch) LaneMask() uint64 { return LaneMask(b.Shots) }

// LaneMask returns the mask of the first `shots` bit lanes, saturating
// outside [0, BlockShots]. It is the one ragged-tail rule every word-wise
// reader of a Batch applies.
func LaneMask(shots int) uint64 {
	if shots >= BlockShots {
		return ^uint64(0)
	}
	if shots <= 0 {
		return 0
	}
	return (uint64(1) << uint(shots)) - 1
}

func resizeWords(w []uint64, n int) []uint64 {
	if cap(w) < n {
		w = make([]uint64, n)
	}
	w = w[:n]
	for i := range w {
		w[i] = 0
	}
	return w
}

// Packed is the shot-major view of a Batch: for each shot, the packed
// detector and observable bits in gf2.Vec.SetBytes layout (LSB-first
// within each byte). Rows are stored at an 8-byte stride; the accessors
// return exactly-ByteLen slices into the shared buffers, valid until the
// next Pack into the same Packed.
type Packed struct {
	shots            int
	detBits, obsBits int
	detStride        int // bytes per shot row (multiple of 8)
	obsStride        int
	syn, obs         []byte
}

// Shots returns the number of valid shot rows.
func (p *Packed) Shots() int { return p.shots }

// NumDets returns the detector bit length of each syndrome row.
func (p *Packed) NumDets() int { return p.detBits }

// NumObs returns the observable bit length of each observable row.
func (p *Packed) NumObs() int { return p.obsBits }

// Syndrome returns shot s's packed detector bits: (NumDets+7)/8 bytes in
// gf2.Vec.SetBytes layout, aliasing the Packed buffer.
func (p *Packed) Syndrome(s int) []byte {
	if s < 0 || s >= p.shots {
		panic(fmt.Sprintf("frame: shot %d out of packed range [0,%d)", s, p.shots))
	}
	return p.syn[s*p.detStride : s*p.detStride+(p.detBits+7)/8]
}

// ObsFlips returns shot s's packed observable-flip bits, aliasing the
// Packed buffer.
func (p *Packed) ObsFlips(s int) []byte {
	if s < 0 || s >= p.shots {
		panic(fmt.Sprintf("frame: shot %d out of packed range [0,%d)", s, p.shots))
	}
	return p.obs[s*p.obsStride : s*p.obsStride+(p.obsBits+7)/8]
}

// Pack transposes a detector-major Batch into shot-major packed rows: 64
// detectors at a time through an in-register 64×64 bit transpose. Lanes at
// or beyond b.Shots are dropped. Buffers in p are reused across calls.
func Pack(b *Batch, p *Packed) {
	p.shots = b.Shots
	p.detBits = len(b.Dets)
	p.obsBits = len(b.Obs)
	p.detStride = 8 * ((p.detBits + 63) / 64)
	p.obsStride = 8 * ((p.obsBits + 63) / 64)
	p.syn = packRows(b.Dets, b.Shots, p.detStride, p.syn)
	p.obs = packRows(b.Obs, b.Shots, p.obsStride, p.obs)
}

// packRows transposes words (one word per row, one bit lane per shot) into
// shots byte rows of the given stride, reusing dst.
func packRows(words []uint64, shots, stride int, dst []byte) []byte {
	need := shots * stride
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	var blk [64]uint64
	for c := 0; c*64 < len(words); c++ {
		lo := c * 64
		hi := lo + 64
		if hi > len(words) {
			hi = len(words)
		}
		n := copy(blk[:], words[lo:hi])
		for i := n; i < 64; i++ {
			blk[i] = 0
		}
		transpose64(&blk)
		for s := 0; s < shots; s++ {
			binary.LittleEndian.PutUint64(dst[s*stride+c*8:], blk[s])
		}
	}
	return dst
}

// Unpack reconstructs the detector-major words of a Packed block, masking
// out lanes at or beyond its shot count: Unpack(Pack(b)) equals b with
// invalid lanes cleared. It is the inverse used by the pack/transpose
// round-trip properties (the transpose is an involution).
func Unpack(p *Packed, b *Batch) {
	b.Shots = p.shots
	b.Dets = unpackRows(p.syn, p.shots, p.detStride, resizeWords(b.Dets, p.detBits))
	b.Obs = unpackRows(p.obs, p.shots, p.obsStride, resizeWords(b.Obs, p.obsBits))
}

func unpackRows(src []byte, shots, stride int, words []uint64) []uint64 {
	var blk [64]uint64
	for c := 0; c*64 < len(words); c++ {
		for i := range blk {
			blk[i] = 0
		}
		for s := 0; s < shots; s++ {
			blk[s] = binary.LittleEndian.Uint64(src[s*stride+c*8:])
		}
		transpose64(&blk)
		lo := c * 64
		for j := lo; j < len(words) && j < lo+64; j++ {
			words[j] = blk[j-lo]
		}
	}
	return words
}

// Cursor adapts a block sampler to per-shot consumption: it draws 64-shot
// blocks lazily, transposes them, and hands out one packed shot row at a
// time — the one block-refill idiom shared by the sim engine, the decode
// service's server-side sampling and perfbench. Shot i of the stream is
// lane i mod 64 of block i/64 (the package determinism contract), so a
// Cursor over a deterministic sampler is itself deterministic.
type Cursor struct {
	sample  func(*Batch)
	blk     Batch
	pk      Packed
	lane    int
	started bool
}

// NewCursor returns a cursor over a block sampler's SampleBlock method.
func NewCursor(sample func(*Batch)) *Cursor {
	return &Cursor{sample: sample, lane: BlockShots}
}

// Next returns the next shot's packed syndrome and observable-flip rows
// (gf2.Vec.SetBytes layout), aliasing internal buffers valid until the
// following Next.
func (c *Cursor) Next() (syndrome, obsFlips []byte) {
	if c.lane == BlockShots {
		c.sample(&c.blk)
		Pack(&c.blk, &c.pk)
		c.lane = 0
		c.started = true
	}
	syndrome, obsFlips = c.pk.Syndrome(c.lane), c.pk.ObsFlips(c.lane)
	c.lane++
	return syndrome, obsFlips
}

// Lane returns the block lane of the shot most recently returned by Next,
// or -1 before the first Next. The sentinel is part of the contract: a
// fresh cursor used to report lane 63 here — a valid-looking lane that
// indexed garbage in any per-lane side channel — so callers may rely on
// a negative value to detect "no shot drawn yet".
func (c *Cursor) Lane() int {
	if !c.started {
		return -1
	}
	return c.lane - 1
}

// transpose64 transposes a 64×64 bit matrix in place: bit s of row d moves
// to bit d of row s (LSB-first bit order). Hacker's Delight §7-3, adapted
// to the LSB-first lane convention.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = ((k | j) + 1) &^ j {
			t := ((a[k] >> uint(j)) ^ a[k|j]) & m
			a[k] ^= t << uint(j)
			a[k|j] ^= t
		}
		m ^= m << uint(j>>1)
	}
}
