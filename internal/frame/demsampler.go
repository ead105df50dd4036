package frame

import "bpsf/internal/dem"

// DEMSampler writes the 64-shot blocks of dem.Blocks into Batch words:
// lane i of block k is shot 64k+i of dem.NewSampler with the same
// arguments.
//
// Not safe for concurrent use; create one per goroutine with distinct
// seeds. The block stream is a deterministic function of (DEM, p, seed).
type DEMSampler struct {
	dem    *dem.DEM
	blocks *dem.Blocks
}

// NewDEMSampler builds a batch sampler at physical error rate p with the
// given seed.
func NewDEMSampler(d *dem.DEM, p float64, seed int64) *DEMSampler {
	return &DEMSampler{dem: d, blocks: dem.NewBlocks(d, p, seed)}
}

// SampleBlock draws the next 64 shots into b (resized and overwritten).
func (s *DEMSampler) SampleBlock(b *Batch) {
	b.Reset(s.dem.NumDets, s.dem.NumObs)
	for _, f := range s.blocks.Next() {
		bit := uint64(1) << uint(f&63)
		for _, d := range s.dem.H.ColSupport(int(f >> 6)) {
			b.Dets[d] ^= bit
		}
		for _, o := range s.dem.Obs.ColSupport(int(f >> 6)) {
			b.Obs[o] ^= bit
		}
	}
}
