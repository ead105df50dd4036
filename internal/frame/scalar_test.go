package frame

import (
	"math/rand"

	"bpsf/internal/circuit"
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
