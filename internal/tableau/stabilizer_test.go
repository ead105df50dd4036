// Package tableau implements a stabilizer-tableau simulator in the style
// of Aaronson & Gottesman (CHP): exact simulation of Clifford circuits
// with resets and Z-basis measurements.
//
// It is test code, imported by nothing outside this directory. Its role
// is verification: the detector error model pipeline (circuit → pauli →
// dem) only reasons about *deviations* from a noiseless reference run,
// silently assuming every declared detector is deterministic in that
// reference. The tableau simulator executes the
// noiseless circuit exactly — including the randomness of gauge-operator
// measurements in subsystem codes — so tests can confirm that every
// detector XOR is constant and every observable is deterministic.
package tableau

import (
	"fmt"
	"math/rand"

	"bpsf/internal/circuit"
	"bpsf/internal/gf2"
)

// Sim is a stabilizer tableau over n qubits: 2n generator rows (the first
// n are destabilizers, the last n stabilizers), each an n-qubit Pauli with
// a sign bit. The initial state is |0…0⟩.
type Sim struct {
	n int
	// x[i], z[i] are the X/Z bit rows of generator i; r[i] is its sign.
	x, z []gf2.Vec
	r    []bool
	rng  *rand.Rand

	scratchX, scratchZ gf2.Vec
	scratchR           bool
}

// New returns a simulator for n qubits in |0…0⟩. Random measurement
// outcomes (anticommuting measurements, e.g. gauge operators) are drawn
// from the given seed.
func New(n int, seed int64) *Sim {
	s := &Sim{
		n:        n,
		x:        make([]gf2.Vec, 2*n),
		z:        make([]gf2.Vec, 2*n),
		r:        make([]bool, 2*n),
		rng:      rand.New(rand.NewSource(seed)),
		scratchX: gf2.NewVec(n),
		scratchZ: gf2.NewVec(n),
	}
	for i := 0; i < n; i++ {
		s.x[i] = gf2.NewVec(n)
		s.z[i] = gf2.NewVec(n)
		s.x[i].Set(i, true) // destabilizer X_i
		s.x[n+i] = gf2.NewVec(n)
		s.z[n+i] = gf2.NewVec(n)
		s.z[n+i].Set(i, true) // stabilizer Z_i
	}
	return s
}

// H applies a Hadamard on qubit a.
func (s *Sim) H(a int) {
	for i := 0; i < 2*s.n; i++ {
		xa, za := s.x[i].Get(a), s.z[i].Get(a)
		if xa && za {
			s.r[i] = !s.r[i]
		}
		s.x[i].Set(a, za)
		s.z[i].Set(a, xa)
	}
}

// CX applies a controlled-X with control a and target b.
func (s *Sim) CX(a, b int) {
	for i := 0; i < 2*s.n; i++ {
		xa, za := s.x[i].Get(a), s.z[i].Get(a)
		xb, zb := s.x[i].Get(b), s.z[i].Get(b)
		if xa && zb && (xb == za) {
			s.r[i] = !s.r[i]
		}
		s.x[i].Set(b, xb != xa)
		s.z[i].Set(a, za != zb)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rowmulScratch multiplies generator row j into the scratch row (scratch ←
// scratch · row_j), tracking the sign.
func (s *Sim) rowmulScratch(j int) {
	// phase exponent accumulates 2·r terms plus per-qubit g contributions
	exp := 2*b2i(s.scratchR) + 2*b2i(s.r[j])
	for w := 0; w < s.n; w++ {
		x1, z1 := s.scratchX.Get(w), s.scratchZ.Get(w)
		x2, z2 := s.x[j].Get(w), s.z[j].Get(w)
		exp += gExp(x1, z1, x2, z2)
	}
	s.scratchX.Xor(s.x[j])
	s.scratchZ.Xor(s.z[j])
	exp = ((exp % 4) + 4) % 4
	// exp is always 0 or 2 for commuting products in this algorithm
	s.scratchR = exp == 2
}

// gExp is the Aaronson–Gottesman g function: the power of i contributed by
// multiplying the single-qubit Paulis (x1,z1)·(x2,z2).
func gExp(x1, z1, x2, z2 bool) int {
	switch {
	case !x1 && !z1:
		return 0
	case x1 && z1: // Y · P
		return b2i(z2) - b2i(x2)
	case x1 && !z1: // X · P
		return b2i(z2) * (2*b2i(x2) - 1)
	default: // Z · P
		return b2i(x2) * (1 - 2*b2i(z2))
	}
}

// rowcopy copies generator row src onto dst.
func (s *Sim) rowcopy(dst, src int) {
	s.x[dst].CopyFrom(s.x[src])
	s.z[dst].CopyFrom(s.z[src])
	s.r[dst] = s.r[src]
}

// rowsum sets row h ← row h · row j (the AG "rowsum" with sign tracking).
func (s *Sim) rowsum(h, j int) {
	s.scratchX.CopyFrom(s.x[h])
	s.scratchZ.CopyFrom(s.z[h])
	s.scratchR = s.r[h]
	s.rowmulScratch(j)
	s.x[h].CopyFrom(s.scratchX)
	s.z[h].CopyFrom(s.scratchZ)
	s.r[h] = s.scratchR
}

// MeasureZ measures qubit a in the Z basis, returning the outcome and
// whether it was deterministic.
func (s *Sim) MeasureZ(a int) (outcome bool, deterministic bool) {
	n := s.n
	p := -1
	for i := n; i < 2*n; i++ {
		if s.x[i].Get(a) {
			p = i
			break
		}
	}
	if p >= 0 {
		// random outcome
		for i := 0; i < 2*n; i++ {
			if i != p && s.x[i].Get(a) {
				s.rowsum(i, p)
			}
		}
		s.rowcopy(p-n, p)
		// row p ← ±Z_a with random sign
		s.x[p].Zero()
		s.z[p].Zero()
		s.z[p].Set(a, true)
		out := s.rng.Intn(2) == 1
		s.r[p] = out
		return out, false
	}
	// deterministic: accumulate destabilizer products into scratch
	s.scratchX.Zero()
	s.scratchZ.Zero()
	s.scratchR = false
	for i := 0; i < n; i++ {
		if s.x[i].Get(a) {
			s.rowmulScratch(i + n)
		}
	}
	return s.scratchR, true
}

// Reset measures qubit a and flips it to |0⟩ if the outcome was 1.
func (s *Sim) Reset(a int) {
	out, _ := s.MeasureZ(a)
	if out {
		s.X(a)
	}
}

// X applies a Pauli X on qubit a (used by Reset).
func (s *Sim) X(a int) {
	for i := 0; i < 2*s.n; i++ {
		if s.z[i].Get(a) {
			s.r[i] = !s.r[i]
		}
	}
}

// Z applies a Pauli Z on qubit a.
func (s *Sim) Z(a int) {
	for i := 0; i < 2*s.n; i++ {
		if s.x[i].Get(a) {
			s.r[i] = !s.r[i]
		}
	}
}

// RunResult holds the measurement record of one noiseless circuit
// execution.
type RunResult struct {
	// Meas[k] is the outcome of measurement record k.
	Meas []bool
	// Deterministic[k] reports whether record k was deterministic.
	Deterministic []bool
}

// Run executes a noiseless circuit (noise ops are skipped) and returns the
// measurement record. Random measurement outcomes (gauge operators) use
// the simulator's seed.
func Run(c *circuit.Circuit, seed int64) (*RunResult, error) {
	return RunWithFault(c, seed, -1, nil, nil)
}

// FaultPauli names the Pauli injected on one qubit by RunWithFault.
type FaultPauli byte

// Fault Pauli components (X|Z = Y).
const (
	FaultX FaultPauli = 1
	FaultZ FaultPauli = 2
	FaultY FaultPauli = 3
)

// RunWithFault executes the circuit like Run, additionally applying the
// given Pauli fault immediately after the operation at index afterOp
// (skip injection with afterOp < 0). This is the verification hook for
// the detector-error-model pipeline: the parity of each detector in the
// faulted run equals the flip predicted by Pauli-frame propagation,
// independent of the measurement randomness.
func RunWithFault(c *circuit.Circuit, seed int64, afterOp int, qubits []int, paulis []FaultPauli) (*RunResult, error) {
	s := New(c.NumQubits, seed)
	res := &RunResult{
		Meas:          make([]bool, c.NumMeas),
		Deterministic: make([]bool, c.NumMeas),
	}
	inject := func() {
		for i, q := range qubits {
			if paulis[i]&FaultX != 0 {
				s.X(q)
			}
			if paulis[i]&FaultZ != 0 {
				s.Z(q)
			}
		}
	}
	if afterOp < 0 && qubits != nil {
		inject()
	}
	for k, op := range c.Ops {
		switch op.Type {
		case circuit.OpR:
			s.Reset(op.Q0)
		case circuit.OpH:
			s.H(op.Q0)
		case circuit.OpCX:
			s.CX(op.Q0, op.Q1)
		case circuit.OpM:
			out, det := s.MeasureZ(op.Q0)
			res.Meas[op.Meas] = out
			res.Deterministic[op.Meas] = det
		case circuit.OpMR:
			out, det := s.MeasureZ(op.Q0)
			res.Meas[op.Meas] = out
			res.Deterministic[op.Meas] = det
			if out {
				s.X(op.Q0)
			}
		default:
			if !op.Type.IsNoise() {
				return nil, fmt.Errorf("tableau: unsupported op %v", op.Type)
			}
		}
		if k == afterOp && qubits != nil {
			inject()
		}
	}
	return res, nil
}

// CheckDetectors runs the noiseless circuit `runs` times with different
// measurement randomness and verifies that every detector XOR is zero and
// every observable value is identical across runs. It returns an error
// naming the first violation.
func CheckDetectors(c *circuit.Circuit, runs int) error {
	var obsRef []bool
	for run := 0; run < runs; run++ {
		res, err := Run(c, int64(run)*7919+1)
		if err != nil {
			return err
		}
		for d, meas := range c.Detectors {
			parity := false
			for _, m := range meas {
				if res.Meas[m] {
					parity = !parity
				}
			}
			if parity {
				return fmt.Errorf("tableau: detector %d fired in noiseless run %d", d, run)
			}
		}
		obs := make([]bool, len(c.Observables))
		for o, meas := range c.Observables {
			for _, m := range meas {
				if res.Meas[m] {
					obs[o] = !obs[o]
				}
			}
		}
		if run == 0 {
			obsRef = obs
		} else {
			for o := range obs {
				if obs[o] != obsRef[o] {
					return fmt.Errorf("tableau: observable %d not deterministic (runs 0 vs %d)", o, run)
				}
			}
		}
	}
	return nil
}
