package frame

import (
	"math"
	"math/rand"
	"sort"

	"bpsf/internal/circuit"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/pauli"
)

// ScalarSampler samples noisy circuit executions one shot at a time: the
// same Pauli-frame process as CircuitSampler with a single Bernoulli draw
// per noise channel per shot instead of word-parallel lanes. It exists
// only for tests: the differential and chi-square suites hold the batch
// path against it, and it is the baseline of BenchmarkScalarSample and
// TestBatchSamplerSpeedup.
//
// Not safe for concurrent use; create one per goroutine with distinct
// seeds.
type ScalarSampler struct {
	c   *circuit.Circuit
	rng *rand.Rand

	x, z []pauli.Bits // per-qubit single-shot frame
	meas []bool

	q []float64 // per-op total fire probability (0 for non-noise ops)

	syndrome gf2.Vec
	obsFlips gf2.Vec
}

// NewScalarSampler builds a one-shot-at-a-time sampler for c at physical
// error rate p with the given seed.
func NewScalarSampler(c *circuit.Circuit, p float64, seed int64) *ScalarSampler {
	s := &ScalarSampler{
		c:        c,
		rng:      rand.New(rand.NewSource(seed)),
		x:        make([]pauli.Bits, c.NumQubits),
		z:        make([]pauli.Bits, c.NumQubits),
		meas:     make([]bool, c.NumMeas),
		q:        make([]float64, len(c.Ops)),
		syndrome: gf2.NewVec(len(c.Detectors)),
		obsFlips: gf2.NewVec(len(c.Observables)),
	}
	for i, op := range c.Ops {
		if op.Type.IsNoise() {
			if q := op.Scale * p; q > 0 {
				s.q[i] = q
			}
		}
	}
	return s
}

// NumDets returns the circuit's detector count.
func (s *ScalarSampler) NumDets() int { return len(s.c.Detectors) }

// NumObs returns the circuit's observable count.
func (s *ScalarSampler) NumObs() int { return len(s.c.Observables) }

// SampleShared draws one shot and returns the detector syndrome and
// observable-flip vectors aliasing the sampler's internal buffers, valid
// until the next call (the dem.Sampler.SampleShared calling convention).
func (s *ScalarSampler) SampleShared() (syndrome, obsFlips gf2.Vec) {
	for i := range s.x {
		s.x[i] = 0
		s.z[i] = 0
	}
	for i, op := range s.c.Ops {
		switch op.Type {
		case circuit.OpR:
			s.x[op.Q0] = 0
			s.z[op.Q0] = 0
		case circuit.OpH:
			s.x[op.Q0], s.z[op.Q0] = s.z[op.Q0], s.x[op.Q0]
		case circuit.OpCX:
			s.x[op.Q1] ^= s.x[op.Q0]
			s.z[op.Q0] ^= s.z[op.Q1]
		case circuit.OpM:
			s.meas[op.Meas] = s.x[op.Q0] != 0
			s.z[op.Q0] = 0
		case circuit.OpMR:
			s.meas[op.Meas] = s.x[op.Q0] != 0
			s.x[op.Q0] = 0
			s.z[op.Q0] = 0
		case circuit.OpNoiseX:
			if s.fires(i) {
				s.x[op.Q0] ^= 1
			}
		case circuit.OpNoiseZ:
			if s.fires(i) {
				s.z[op.Q0] ^= 1
			}
		case circuit.OpNoiseDep1:
			if s.fires(i) {
				switch s.rng.Intn(3) {
				case 0:
					s.x[op.Q0] ^= 1
				case 1: // Y
					s.x[op.Q0] ^= 1
					s.z[op.Q0] ^= 1
				default:
					s.z[op.Q0] ^= 1
				}
			}
		case circuit.OpNoiseDep2:
			if s.fires(i) {
				v := s.rng.Intn(15) + 1
				pa, pb := pauli.Bits(v>>2), pauli.Bits(v&3)
				s.x[op.Q0] ^= pa & 1
				s.z[op.Q0] ^= (pa & 2) >> 1
				s.x[op.Q1] ^= pb & 1
				s.z[op.Q1] ^= (pb & 2) >> 1
			}
		}
	}
	s.syndrome.Zero()
	s.obsFlips.Zero()
	for d, ms := range s.c.Detectors {
		parity := false
		for _, m := range ms {
			if s.meas[m] {
				parity = !parity
			}
		}
		if parity {
			s.syndrome.Set(d, true)
		}
	}
	for o, ms := range s.c.Observables {
		parity := false
		for _, m := range ms {
			if s.meas[m] {
				parity = !parity
			}
		}
		if parity {
			s.obsFlips.Set(o, true)
		}
	}
	return s.syndrome, s.obsFlips
}

func (s *ScalarSampler) fires(i int) bool {
	q := s.q[i]
	if q <= 0 {
		return false
	}
	return q >= 1 || s.rng.Float64() < q
}

// DEMScalarSampler draws DEM mechanism vectors one shot at a time: an
// independent implementation of the Bernoulli-mechanism process of
// dem.Blocks, with its own RNG use (one geometric skip per fire within
// each equal-prior group of one shot). It exists only for tests: the
// differential and chi-square suites hold the shipped DEM sampling
// against it, and it is the baseline of BenchmarkDEMScalarSample.
//
// Not safe for concurrent use; create one per goroutine with distinct
// seeds.
type DEMScalarSampler struct {
	d      *dem.DEM
	rng    *rand.Rand
	groups []scalarGroup

	syndrome gf2.Vec
	obsFlips gf2.Vec
	mechs    []int
}

type scalarGroup struct {
	p       float64
	logq    float64 // log(1-p)
	indices []int
}

// NewDEMScalarSampler builds a per-shot DEM sampler at physical error
// rate p with the given seed.
func NewDEMScalarSampler(d *dem.DEM, p float64, seed int64) *DEMScalarSampler {
	s := &DEMScalarSampler{
		d:        d,
		rng:      rand.New(rand.NewSource(seed)),
		syndrome: gf2.NewVec(d.NumDets),
		obsFlips: gf2.NewVec(d.NumObs),
	}
	byProb := make(map[float64][]int)
	for i, pr := range d.Priors(p) {
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
		s.groups = append(s.groups, scalarGroup{p: pr, logq: math.Log(1 - pr), indices: byProb[pr]})
	}
	return s
}

// SampleShared draws one shot and returns the syndrome and observable-flip
// vectors aliasing the sampler's internal buffers, valid until the next
// call.
func (s *DEMScalarSampler) SampleShared() (syndrome, obsFlips gf2.Vec) {
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
			i += int(math.Floor(math.Log(1-u) / g.logq))
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

func (s *DEMScalarSampler) fire(mechs []int, m int) []int {
	for _, d := range s.d.H.ColSupport(m) {
		s.syndrome.Flip(int(d))
	}
	for _, o := range s.d.Obs.ColSupport(m) {
		s.obsFlips.Flip(int(o))
	}
	return append(mechs, m)
}
