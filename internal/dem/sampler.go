package dem

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bpsf/internal/gf2"
)

// BlockShots is the number of shots in one sampled block: the lane count
// of a 64-bit word.
const BlockShots = 64

// Shot is one sampled experiment outcome.
type Shot struct {
	// Mechs is the support of the sampled mechanism vector e.
	Mechs []int
	// Syndrome is H·e (detector flips).
	Syndrome gf2.Vec
	// ObsFlips is Obs·e (true logical flips the decoder must reproduce).
	ObsFlips gf2.Vec
}

// Blocks draws 64-shot blocks of i.i.d. Bernoulli mechanism fires from a
// DEM at a fixed physical error rate: the one DEM sampling algorithm, read
// word-parallel by frame.DEMSampler and shot by shot by Sampler.
// Mechanisms are grouped by equal prior, and each group's (mechanism ×
// lane) space is swept with one geometric-skipping pass, so the cost per
// block is proportional to the mechanisms that fire plus one residual
// draw per group.
//
// Not safe for concurrent use; create one per goroutine with distinct
// seeds. The block stream is a deterministic function of (DEM, p, seed).
type Blocks struct {
	priors []float64
	rng    *rand.Rand
	groups []probGroup
	fires  []int32
}

type probGroup struct {
	q       float64
	logq    float64 // log(1-q), unset when q ≥ 1
	indices []int32
}

// NewBlocks builds a block sampler at physical error rate p with the given
// seed. It panics if the DEM has too many mechanisms for a fire's
// mech<<6|lane packing in an int32.
func NewBlocks(d *DEM, p float64, seed int64) *Blocks {
	if n := d.NumMechs(); n > math.MaxInt32>>6 {
		panic(fmt.Sprintf("dem: %d mechanisms overflow the int32 fire packing", n))
	}
	b := &Blocks{priors: d.Priors(p), rng: rand.New(rand.NewSource(seed))}
	byProb := make(map[float64][]int32)
	for i, pr := range b.priors {
		if pr > 0 {
			byProb[pr] = append(byProb[pr], int32(i))
		}
	}
	probs := make([]float64, 0, len(byProb))
	for pr := range byProb {
		probs = append(probs, pr)
	}
	sort.Float64s(probs)
	for _, pr := range probs {
		g := probGroup{q: pr, indices: byProb[pr]}
		if pr < 1 {
			g.logq = math.Log1p(-pr)
		}
		b.groups = append(b.groups, g)
	}
	return b
}

// Priors returns the per-mechanism priors at the sampler's error rate (for
// configuring decoders). The caller must not modify the slice.
func (b *Blocks) Priors() []float64 { return b.priors }

// Next draws the next block and returns its fires, each packed as
// mech<<6 | lane: mechanism mech fired in shot lane of the block. The
// slice aliases an internal buffer valid until the following Next.
func (b *Blocks) Next() []int32 {
	fires := b.fires[:0]
	for _, g := range b.groups {
		limit := BlockShots * len(g.indices)
		if g.q >= 1 {
			for t := 0; t < limit; t++ {
				fires = append(fires, g.indices[t>>6]<<6|int32(t&63))
			}
			continue
		}
		t := 0
		for {
			f := math.Log(1-b.rng.Float64()) / g.logq
			if f >= float64(limit-t) {
				break
			}
			t += int(f)
			fires = append(fires, g.indices[t>>6]<<6|int32(t&63))
			t++
		}
	}
	b.fires = fires
	return fires
}

// Sampler hands out the lanes of a Blocks stream one shot at a time and
// assembles each shot's syndrome and observable flips: shot 64k+i of
// NewSampler(d, p, seed) is lane i of block k of NewBlocks(d, p, seed).
// Not safe for concurrent use; create one per goroutine with distinct
// seeds.
type Sampler struct {
	dem    *DEM
	blocks *Blocks

	lane   int                 // next lane to hand out; BlockShots = draw a block
	byLane []int32             // the block's fired mechanisms, grouped by lane
	start  [BlockShots + 1]int // lane i's mechanisms are byLane[start[i]:start[i+1]]

	syndrome gf2.Vec
	obsFlips gf2.Vec
	mechs    []int
}

// NewSampler builds a sampler at physical error rate p with the given
// seed. It panics, before allocating, under the condition NewBlocks does.
func NewSampler(d *DEM, p float64, seed int64) *Sampler {
	blocks := NewBlocks(d, p, seed)
	return &Sampler{
		dem:      d,
		blocks:   blocks,
		lane:     BlockShots,
		syndrome: gf2.NewVec(d.NumDets),
		obsFlips: gf2.NewVec(d.NumObs),
	}
}

// Priors returns the per-mechanism priors at the sampler's error rate (for
// configuring decoders). The caller must not modify the slice.
func (s *Sampler) Priors() []float64 { return s.blocks.Priors() }

// Sample draws one shot. The returned Shot's vectors are copies owned by
// the caller.
func (s *Sampler) Sample() Shot {
	syndrome, obsFlips := s.SampleShared()
	return Shot{
		Mechs:    append([]int(nil), s.mechs...),
		Syndrome: syndrome.Clone(),
		ObsFlips: obsFlips.Clone(),
	}
}

// SampleShared draws one shot and returns the syndrome and observable-flip
// vectors aliasing the sampler's internal buffers, valid until the next
// Sample/SampleShared call — the allocation-free variant. The
// fired-mechanism support of the shot stays available through Mechs.
func (s *Sampler) SampleShared() (syndrome, obsFlips gf2.Vec) {
	if s.lane == BlockShots {
		s.bucket(s.blocks.Next())
		s.lane = 0
	}
	mechs := s.mechs[:0]
	s.syndrome.Zero()
	s.obsFlips.Zero()
	for _, m := range s.byLane[s.start[s.lane]:s.start[s.lane+1]] {
		mechs = append(mechs, int(m))
		for _, d := range s.dem.H.ColSupport(int(m)) {
			s.syndrome.Flip(int(d))
		}
		for _, o := range s.dem.Obs.ColSupport(int(m)) {
			s.obsFlips.Flip(int(o))
		}
	}
	s.lane++
	sort.Ints(mechs)
	s.mechs = mechs
	return s.syndrome, s.obsFlips
}

// bucket counting-sorts a block's fires by lane into byLane and start.
func (s *Sampler) bucket(fires []int32) {
	s.start = [BlockShots + 1]int{}
	for _, f := range fires {
		s.start[f&63+1]++
	}
	for i := 1; i <= BlockShots; i++ {
		s.start[i] += s.start[i-1]
	}
	if cap(s.byLane) < len(fires) {
		s.byLane = make([]int32, len(fires), 2*len(fires))
	}
	s.byLane = s.byLane[:len(fires)]
	next := s.start
	for _, f := range fires {
		s.byLane[next[f&63]] = f >> 6
		next[f&63]++
	}
}

// Mechs returns the sorted fired-mechanism support of the most recent
// SampleShared call, aliasing an internal buffer valid until the next call.
func (s *Sampler) Mechs() []int { return s.mechs }

// ObsOf computes Obs·e for an arbitrary mechanism vector (used to compare a
// decoder's estimate against a shot's true observable flips).
func (d *DEM) ObsOf(e gf2.Vec) gf2.Vec { return d.Obs.MulVec(e) }

// SyndromeOf computes H·e.
func (d *DEM) SyndromeOf(e gf2.Vec) gf2.Vec { return d.H.MulVec(e) }
