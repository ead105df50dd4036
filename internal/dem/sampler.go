package dem

import (
	"math"
	"math/rand"
	"sort"

	"bpsf/internal/gf2"
)

// Shot is one sampled experiment outcome.
type Shot struct {
	// Mechs is the support of the sampled mechanism vector e.
	Mechs []int
	// Syndrome is H·e (detector flips).
	Syndrome gf2.Vec
	// ObsFlips is Obs·e (true logical flips the decoder must reproduce).
	ObsFlips gf2.Vec
}

// Sampler draws i.i.d. Bernoulli mechanism vectors from a DEM at a fixed
// physical error rate and assembles syndromes and observable flips. Not
// safe for concurrent use; create one per goroutine with distinct seeds.
//
// Mechanisms are grouped by equal prior so sampling cost is proportional to
// the expected number of fired mechanisms (geometric skipping), not to the
// total mechanism count.
type Sampler struct {
	dem    *DEM
	priors []float64
	rng    *rand.Rand
	// groups of mechanism indices sharing one probability
	groups []probGroup

	syndrome gf2.Vec
	obsFlips gf2.Vec
	mechs    []int
}

type probGroup struct {
	p       float64
	logq    float64 // log(1-p)
	indices []int
}

// NewSampler builds a sampler at physical error rate p with the given seed.
func NewSampler(d *DEM, p float64, seed int64) *Sampler {
	s := &Sampler{
		dem:      d,
		priors:   d.Priors(p),
		rng:      rand.New(rand.NewSource(seed)),
		syndrome: gf2.NewVec(d.NumDets),
		obsFlips: gf2.NewVec(d.NumObs),
	}
	byProb := make(map[float64][]int)
	for i, pr := range s.priors {
		if pr > 0 {
			byProb[pr] = append(byProb[pr], i)
		}
	}
	probs := make([]float64, 0, len(byProb))
	for pr := range byProb {
		probs = append(probs, pr)
	}
	sort.Float64s(probs)
	for _, pr := range probs {
		s.groups = append(s.groups, probGroup{p: pr, logq: math.Log(1 - pr), indices: byProb[pr]})
	}
	return s
}

// Priors returns the per-mechanism priors at the sampler's error rate (for
// configuring decoders). The caller must not modify the slice.
func (s *Sampler) Priors() []float64 { return s.priors }

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
// Sample/SampleShared call — the allocation-free variant used by the
// sharded Monte-Carlo engine. The fired-mechanism support of the shot stays
// available through Mechs.
func (s *Sampler) SampleShared() (syndrome, obsFlips gf2.Vec) {
	mechs := s.mechs[:0]
	s.syndrome.Zero()
	s.obsFlips.Zero()
	for _, g := range s.groups {
		if g.p >= 1 {
			for _, m := range g.indices {
				mechs = s.fire(mechs, m)
			}
			continue
		}
		// geometric skipping within the group
		i := 0
		for {
			u := s.rng.Float64()
			skip := int(math.Floor(math.Log(1-u) / g.logq))
			i += skip
			if i >= len(g.indices) {
				break
			}
			mechs = s.fire(mechs, g.indices[i])
			i++
		}
	}
	sort.Ints(mechs)
	s.mechs = mechs
	return s.syndrome, s.obsFlips
}

// Mechs returns the sorted fired-mechanism support of the most recent
// SampleShared call, aliasing an internal buffer valid until the next call.
func (s *Sampler) Mechs() []int { return s.mechs }

func (s *Sampler) fire(mechs []int, m int) []int {
	mechs = append(mechs, m)
	for _, d := range s.dem.H.ColSupport(m) {
		s.syndrome.Flip(int(d))
	}
	for _, o := range s.dem.Obs.ColSupport(m) {
		s.obsFlips.Flip(int(o))
	}
	return mechs
}

// ObsOf computes Obs·e for an arbitrary mechanism vector (used to compare a
// decoder's estimate against a shot's true observable flips).
func (d *DEM) ObsOf(e gf2.Vec) gf2.Vec { return d.Obs.MulVec(e) }

// SyndromeOf computes H·e.
func (d *DEM) SyndromeOf(e gf2.Vec) gf2.Vec { return d.H.MulVec(e) }
