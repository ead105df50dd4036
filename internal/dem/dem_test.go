package dem

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"bpsf/internal/circuit"
	"bpsf/internal/codes"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/pauli"
	"bpsf/internal/sparse"
)

// forwardFaults enumerates c's elementary faults in op order and Pauli
// order, propagates each forward with package pauli, and calls f with the
// detectors and observables it flips, ascending and without repeats. The
// slices are valid until f returns.
func forwardFaults(c *circuit.Circuit, f func(opIdx int, dets, obs []int, coeff float64) error) error {
	prop := pauli.New(c)
	measToDets := make([][]int32, c.NumMeas)
	for d, meas := range c.Detectors {
		for _, m := range meas {
			measToDets[m] = append(measToDets[m], int32(d))
		}
	}
	measToObs := make([][]int32, c.NumMeas)
	for o, meas := range c.Observables {
		for _, m := range meas {
			measToObs[m] = append(measToObs[m], int32(o))
		}
	}
	detParity := make([]bool, len(c.Detectors))
	obsParity := make([]bool, len(c.Observables))
	var dets, obs, touched []int
	// odd appends to out the indices listed an odd number of times in the
	// lists of the flipped measurements, ascending. Each index enters
	// touched once however often it toggles, so none is listed twice.
	odd := func(out []int, flips []int, lists [][]int32, parity []bool) []int {
		touched = touched[:0]
		for _, m := range flips {
			for _, i := range lists[m] {
				if !parity[i] {
					touched = append(touched, int(i))
				}
				parity[i] = !parity[i]
			}
		}
		for _, i := range touched {
			if parity[i] {
				out = append(out, i)
				parity[i] = false
			}
		}
		sort.Ints(out)
		return out
	}
	fault := func(opIdx int, qubits []int, paulis []pauli.Bits, coeff float64) error {
		flips := prop.Propagate(opIdx, qubits, paulis)
		dets = odd(dets[:0], flips, measToDets, detParity)
		obs = odd(obs[:0], flips, measToObs, obsParity)
		return f(opIdx, dets, obs, coeff)
	}
	for opIdx, op := range c.Ops {
		var err error
		switch op.Type {
		case circuit.OpNoiseX:
			err = fault(opIdx, []int{op.Q0}, []pauli.Bits{pauli.X}, op.Scale)
		case circuit.OpNoiseZ:
			err = fault(opIdx, []int{op.Q0}, []pauli.Bits{pauli.Z}, op.Scale)
		case circuit.OpNoiseDep1:
			for _, pb := range []pauli.Bits{pauli.X, pauli.Y, pauli.Z} {
				if err = fault(opIdx, []int{op.Q0}, []pauli.Bits{pb}, op.Scale/3); err != nil {
					break
				}
			}
		case circuit.OpNoiseDep2:
			for a := pauli.Bits(0); a <= 3 && err == nil; a++ {
				for b := pauli.Bits(0); b <= 3; b++ {
					if a == 0 && b == 0 {
						continue
					}
					if err = fault(opIdx, []int{op.Q0, op.Q1}, []pauli.Bits{a, b}, op.Scale/15); err != nil {
						break
					}
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// extractForward is the reference extraction Extract must equal: every
// fault walked forward through a Pauli frame, then merged by its sorted
// (detectors, observables) signature in first-occurrence order.
func extractForward(c *circuit.Circuit) (*DEM, error) {
	type mech struct {
		dets, obs []int
		coeffs    map[float64]int
	}
	var mechs []mech
	index := map[string]int{}
	var key []byte
	err := forwardFaults(c, func(opIdx int, dets, obs []int, coeff float64) error {
		if len(dets) == 0 && len(obs) == 0 {
			return nil
		}
		if len(dets) == 0 {
			return fmt.Errorf("dem: fault at op %d flips observables %v with no detector", opIdx, obs)
		}
		// length-prefixed varint encoding: injective on (dets, obs)
		key = binary.AppendUvarint(key[:0], uint64(len(dets)))
		for _, d := range dets {
			key = binary.AppendUvarint(key, uint64(d))
		}
		for _, o := range obs {
			key = binary.AppendUvarint(key, uint64(o))
		}
		mi, ok := index[string(key)]
		if !ok {
			mi = len(mechs)
			index[string(key)] = mi
			mechs = append(mechs, mech{
				dets:   append([]int(nil), dets...),
				obs:    append([]int(nil), obs...),
				coeffs: map[float64]int{},
			})
		}
		mechs[mi].coeffs[coeff]++
		return nil
	})
	if err != nil {
		return nil, err
	}
	hb := sparse.NewBuilder(len(c.Detectors), len(mechs))
	ob := sparse.NewBuilder(len(c.Observables), len(mechs))
	coeffs := make([]map[float64]int, len(mechs))
	for m, mm := range mechs {
		for _, d := range mm.dets {
			hb.Set(d, m)
		}
		for _, o := range mm.obs {
			ob.Set(o, m)
		}
		coeffs[m] = mm.coeffs
	}
	return &DEM{
		NumDets: len(c.Detectors),
		NumObs:  len(c.Observables),
		H:       hb.Build(),
		Obs:     ob.Build(),
		coeffs:  coeffs,
	}, nil
}

// catalogCircuit builds the uniform-noise memory experiment of a catalog
// code.
func catalogCircuit(t testing.TB, name string, rounds int) *circuit.Circuit {
	t.Helper()
	css, err := codes.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := memexp.Build(css, rounds, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// catalogRounds returns the rounds the exactness tests cover for c: 1–3,
// or 1–2 above 300 circuit qubits (the forward reference is slow there).
// Under the race detector only 1 round, and only up to 300 qubits.
func catalogRounds(c *circuit.Circuit) int {
	switch {
	case raceEnabled && c.NumQubits > 300:
		return 0
	case raceEnabled:
		return 1
	case c.NumQubits > 300:
		return 2
	}
	return 3
}

func TestExtractMatchesForwardReference(t *testing.T) {
	for _, name := range codes.Names() {
		for r := 1; r <= 3; r++ {
			c := catalogCircuit(t, name, r)
			if r > catalogRounds(c) {
				break
			}
			got, err := Extract(c)
			if err != nil {
				t.Fatalf("%s r%d: %v", name, r, err)
			}
			want, err := extractForward(c)
			if err != nil {
				t.Fatalf("%s r%d: reference: %v", name, r, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s r%d: Extract differs from the forward reference (%d vs %d mechanisms, %d vs %d edges)",
					name, r, got.NumMechs(), want.NumMechs(), got.H.NNZ(), want.H.NNZ())
			}
		}
	}
}

func TestExtractMergesIdenticalSignatures(t *testing.T) {
	for _, name := range codes.Names() {
		for r := 1; r <= 2; r++ {
			c := catalogCircuit(t, name, r)
			if r > catalogRounds(c) {
				break
			}
			d, err := Extract(c)
			if err != nil {
				t.Fatalf("%s r%d: %v", name, r, err)
			}
			seen := map[string]int{}
			total := 0
			for m := 0; m < d.NumMechs(); m++ {
				k := fmt.Sprint(d.H.ColSupport(m), d.Obs.ColSupport(m))
				if prev, ok := seen[k]; ok {
					t.Fatalf("%s r%d: mechanisms %d and %d share signature %s", name, r, prev, m, k)
				}
				seen[k] = m
				total += d.MechanismFaults(m)
			}
			flipping := 0
			err = forwardFaults(c, func(_ int, dets, obs []int, _ float64) error {
				if len(dets)+len(obs) > 0 {
					flipping++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if total != flipping {
				t.Errorf("%s r%d: mechanisms hold %d faults, %d faults flip something", name, r, total, flipping)
			}
		}
	}
}

// TestExtractMatchesForwardOnHandBuiltCircuit covers every op and noise
// type, including a detector that repeats a measurement and a CX whose
// spread cancels, against the forward reference.
func TestExtractMatchesForwardOnHandBuiltCircuit(t *testing.T) {
	c := circuit.New(4)
	c.R(0, 1, 2, 3)
	c.NoiseX(1, 0).NoiseZ(2, 1).Dep1(1, 2)
	c.H(0, 3)
	c.CX(0, 1).CX(3, 2).CX(0, 2)
	c.Dep2(1, 0, 1).Dep2(0.5, 2, 3)
	c.H(3)
	c.CX(1, 3)
	c.NoiseZ(1, 3).Dep1(1, 0)
	m0 := c.MR(0)
	c.Dep1(1, 0)
	c.CX(2, 0)
	c.Dep1(1, 1)
	m1 := c.M(1)
	c.H(1) // a Z component that survived m1 would flip m2
	c.NoiseX(1, 1)
	m2 := c.M(1)
	m3 := c.MR(2)
	m4 := c.M(3)
	m5 := c.M(0)
	c.Detector(m0)
	c.Detector(m1, m2)
	c.Detector(m2, m3, m3)
	c.Detector(m3, m4)
	c.Detector(m5)
	c.Detector(m4)
	c.Observable(m0, m1)
	c.Observable(m4, m5)
	got, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := extractForward(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Extract differs from the forward reference: %d vs %d mechanisms", got.NumMechs(), want.NumMechs())
	}
}

// TestExtractSpeedup is the enforced gate for the backward sweep: Extract
// must build the bb144 2-round DEM at least 5× faster than the forward
// reference, best of 3 runs per side. Skipped under race or coverage
// instrumentation (timings are skewed there).
func TestExtractSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-ratio gate")
	}
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("timing-ratio gate: skewed under race/coverage instrumentation")
	}
	c := catalogCircuit(t, "bb144", 2)
	best := func(extract func(*circuit.Circuit) (*DEM, error)) time.Duration {
		var b time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := extract(c); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(start); i == 0 || el < b {
				b = el
			}
		}
		return b
	}
	back, fwd := best(Extract), best(extractForward)
	ratio := float64(fwd) / float64(back)
	t.Logf("backward %v, forward %v: %.1f× speedup", back, fwd, ratio)
	if ratio < 5 {
		t.Errorf("Extract only %.1f× faster than the forward reference (gate 5×)", ratio)
	}
}

func BenchmarkExtract(b *testing.B) {
	for _, tc := range []struct {
		name   string
		rounds int
	}{{"bb144", 2}, {"rsurf5", 5}} {
		c := catalogCircuit(b, tc.name, tc.rounds)
		b.Run(fmt.Sprintf("%s/r%d", tc.name, tc.rounds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Extract(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestExtractSingleMechanism(t *testing.T) {
	c := circuit.New(1)
	c.R(0)
	c.NoiseX(1, 0)
	m := c.M(0)
	c.Detector(m)
	d, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumMechs() != 1 || d.NumDets != 1 {
		t.Fatalf("mechs=%d dets=%d", d.NumMechs(), d.NumDets)
	}
	pr := d.Priors(0.01)
	if math.Abs(pr[0]-0.01) > 1e-12 {
		t.Fatalf("prior = %v, want 0.01", pr[0])
	}
}

func TestExtractMergesIdenticalFaults(t *testing.T) {
	// two X channels on the same qubit before one measurement merge into a
	// single mechanism with odd-combination probability 2p(1-p)
	c := circuit.New(1)
	c.R(0)
	c.NoiseX(1, 0)
	c.NoiseX(1, 0)
	m := c.M(0)
	c.Detector(m)
	d, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumMechs() != 1 {
		t.Fatalf("mechs = %d, want 1 (merge failed)", d.NumMechs())
	}
	if d.MechanismFaults(0) != 2 {
		t.Fatalf("fault count = %d, want 2", d.MechanismFaults(0))
	}
	p := 0.01
	want := 2 * p * (1 - p)
	if got := d.Priors(p)[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("merged prior = %v, want %v", got, want)
	}
}

func TestExtractDep1SplitsXY(t *testing.T) {
	// depolarize1 before a Z measurement: X and Y flip it (two faults,
	// same signature → one mechanism with coefficient 2·(1/3)); Z flips
	// nothing and is dropped
	c := circuit.New(1)
	c.R(0)
	c.Dep1(1, 0)
	m := c.M(0)
	c.Detector(m)
	d, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumMechs() != 1 {
		t.Fatalf("mechs = %d, want 1", d.NumMechs())
	}
	if d.MechanismFaults(0) != 2 {
		t.Fatalf("faults = %d, want 2 (X and Y)", d.MechanismFaults(0))
	}
	p := 0.03
	q := p / 3
	want := (1 - (1-2*q)*(1-2*q)) / 2
	if got := d.Priors(p)[0]; math.Abs(got-want) > 1e-12 {
		t.Fatalf("prior = %v, want %v", got, want)
	}
}

func TestExtractDistinctSignatures(t *testing.T) {
	// X noise on two different qubits, each with own detector: 2 mechanisms
	c := circuit.New(2)
	c.R(0).R(1)
	c.NoiseX(1, 0)
	c.NoiseX(1, 1)
	m0 := c.M(0)
	m1 := c.M(1)
	c.Detector(m0)
	c.Detector(m1)
	d, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumMechs() != 2 {
		t.Fatalf("mechs = %d, want 2", d.NumMechs())
	}
	// H must be the 2x2 identity (in some column order)
	if d.H.NNZ() != 2 || d.H.ColWeight(0) != 1 || d.H.ColWeight(1) != 1 {
		t.Fatal("H structure wrong")
	}
}

func TestExtractObservableTracking(t *testing.T) {
	c := circuit.New(1)
	c.R(0)
	c.NoiseX(1, 0)
	m0 := c.MR(0)
	m1 := c.M(0)
	c.Detector(m0)
	c.Detector(m1)
	c.Observable(m0)
	d, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumObs != 1 || d.Obs.NNZ() != 1 {
		t.Fatalf("observable tracking wrong: obs nnz = %d", d.Obs.NNZ())
	}
}

func TestExtractRejectsUndetectableLogical(t *testing.T) {
	// observables with no detector coverage. The error names the first
	// such fault in forward order, as the forward reference does: across
	// ops (an X flip, then a two-qubit channel) and within one channel
	// (its first offending Pauli pair is I⊗X, flipping observable 1 only)
	single := circuit.New(1)
	single.R(0)
	single.NoiseX(1, 0)
	single.Observable(single.M(0))

	pair := func(leadingX bool) *circuit.Circuit {
		c := circuit.New(2)
		c.R(0, 1)
		if leadingX {
			c.NoiseX(1, 0)
		}
		c.Dep2(1, 0, 1)
		c.Observable(c.M(0))
		c.Observable(c.M(1))
		return c
	}
	for name, c := range map[string]*circuit.Circuit{
		"single":     single,
		"dep2":       pair(false),
		"x-and-dep2": pair(true),
	} {
		_, err := Extract(c)
		if err == nil {
			t.Fatalf("%s: undetectable logical fault not rejected", name)
		}
		if _, ref := extractForward(c); ref == nil || ref.Error() != err.Error() {
			t.Fatalf("%s: error %q, forward reference %v", name, err, ref)
		}
	}
}

func TestExtractNoiselessEmpty(t *testing.T) {
	c := circuit.New(2)
	c.R(0).R(1)
	m := c.M(0)
	c.M(1)
	c.Detector(m)
	d, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumMechs() != 0 {
		t.Fatalf("noiseless circuit has %d mechanisms", d.NumMechs())
	}
}

func TestExtractDeterministic(t *testing.T) {
	build := func() *circuit.Circuit {
		c := circuit.New(3)
		c.R(0).R(1).R(2)
		c.H(0)
		c.Dep1(1, 0)
		c.CX(0, 1)
		c.Dep2(1, 0, 1)
		c.CX(1, 2)
		c.Dep2(1, 1, 2)
		m0 := c.MR(0)
		m1 := c.MR(1)
		m2 := c.M(2)
		c.Detector(m0)
		c.Detector(m0, m1)
		c.Detector(m1, m2)
		c.Observable(m2)
		return c
	}
	d1, err := Extract(build())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Extract(build())
	if err != nil {
		t.Fatal(err)
	}
	if d1.NumMechs() != d2.NumMechs() || !d1.H.Equal(d2.H) || !d1.Obs.Equal(d2.Obs) {
		t.Fatal("extraction not deterministic")
	}
}

func TestPriorsClamped(t *testing.T) {
	c := circuit.New(1)
	c.R(0)
	c.NoiseX(5, 0) // scale 5: at p=0.2 the raw probability would be 1.0
	m := c.M(0)
	c.Detector(m)
	d, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	pr := d.Priors(0.2)
	if pr[0] != 0.5 {
		t.Fatalf("prior = %v, want clamp at 0.5", pr[0])
	}
}

func buildSampleDEM(t *testing.T) *DEM {
	t.Helper()
	c := circuit.New(4)
	for q := 0; q < 4; q++ {
		c.R(q)
	}
	for q := 0; q < 4; q++ {
		c.NoiseX(1, q)
	}
	var ms []int
	for q := 0; q < 4; q++ {
		ms = append(ms, c.M(q))
	}
	c.Detector(ms[0], ms[1])
	c.Detector(ms[1], ms[2])
	c.Detector(ms[2], ms[3])
	c.Detector(ms[3])
	c.Observable(ms[0])
	d, err := Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSamplerShotConsistency(t *testing.T) {
	d := buildSampleDEM(t)
	s := NewSampler(d, 0.2, 123)
	for shot := 0; shot < 200; shot++ {
		sh := s.Sample()
		e := gf2.NewVec(d.NumMechs())
		for _, m := range sh.Mechs {
			e.Flip(m)
		}
		if !d.SyndromeOf(e).Equal(sh.Syndrome) {
			t.Fatal("sampled syndrome inconsistent with mechanism vector")
		}
		if !d.ObsOf(e).Equal(sh.ObsFlips) {
			t.Fatal("sampled observable flips inconsistent")
		}
	}
}

func TestSamplerStatistics(t *testing.T) {
	d := buildSampleDEM(t)
	p := 0.1
	s := NewSampler(d, p, 99)
	priors := s.Priors()
	var expect float64
	for _, q := range priors {
		expect += q
	}
	shots := 20000
	total := 0
	for i := 0; i < shots; i++ {
		total += len(s.Sample().Mechs)
	}
	mean := float64(total) / float64(shots)
	if math.Abs(mean-expect) > 0.05*expect+0.02 {
		t.Fatalf("mean fired = %v, expect ≈ %v", mean, expect)
	}
}

func TestSamplerDeterministicSeed(t *testing.T) {
	d := buildSampleDEM(t)
	a := NewSampler(d, 0.2, 7)
	b := NewSampler(d, 0.2, 7)
	for i := 0; i < 50; i++ {
		sa, sb := a.Sample(), b.Sample()
		if !sa.Syndrome.Equal(sb.Syndrome) || !sa.ObsFlips.Equal(sb.ObsFlips) {
			t.Fatal("same seed produced different shots")
		}
	}
}

func TestSamplerZeroRate(t *testing.T) {
	d := buildSampleDEM(t)
	s := NewSampler(d, 0, 1)
	for i := 0; i < 10; i++ {
		sh := s.Sample()
		if len(sh.Mechs) != 0 || !sh.Syndrome.IsZero() {
			t.Fatal("p=0 sampled an error")
		}
	}
}
