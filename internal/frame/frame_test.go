package frame

import (
	"math/rand"
	"testing"

	"bpsf/internal/circuit"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/pauli"
)

// naiveTranspose64 is the per-bit reference for the word transpose.
func naiveTranspose64(a [64]uint64) [64]uint64 {
	var out [64]uint64
	for r := 0; r < 64; r++ {
		for b := 0; b < 64; b++ {
			if a[r]>>uint(b)&1 == 1 {
				out[b] |= 1 << uint(r)
			}
		}
	}
	return out
}

func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var a [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		want := naiveTranspose64(a)
		got := a
		transpose64(&got)
		if got != want {
			t.Fatalf("trial %d: transpose64 disagrees with naive reference", trial)
		}
		// involution: transposing twice restores the input
		transpose64(&got)
		if got != a {
			t.Fatalf("trial %d: transpose64 is not an involution", trial)
		}
	}
}

func TestPackMatchesPerBitExtraction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ dets, obs, shots int }{
		{1, 1, 1}, {7, 2, 64}, {64, 1, 64}, {65, 3, 64}, {200, 5, 17},
		{63, 0, 64}, {128, 64, 33}, {130, 66, 64},
	} {
		b := &Batch{Shots: tc.shots, Dets: make([]uint64, tc.dets), Obs: make([]uint64, tc.obs)}
		for i := range b.Dets {
			b.Dets[i] = rng.Uint64()
		}
		for i := range b.Obs {
			b.Obs[i] = rng.Uint64()
		}
		var p Packed
		Pack(b, &p)
		if p.Shots() != tc.shots || p.NumDets() != tc.dets || p.NumObs() != tc.obs {
			t.Fatalf("%+v: packed geometry %d/%d/%d", tc, p.Shots(), p.NumDets(), p.NumObs())
		}
		syn := gf2.NewVec(tc.dets)
		for s := 0; s < tc.shots; s++ {
			row := p.Syndrome(s)
			if len(row) != syn.ByteLen() {
				t.Fatalf("%+v shot %d: syndrome row %d bytes, want %d", tc, s, len(row), syn.ByteLen())
			}
			if err := syn.SetBytes(row); err != nil {
				t.Fatalf("%+v shot %d: SetBytes: %v", tc, s, err)
			}
			for d := 0; d < tc.dets; d++ {
				if syn.Get(d) != (b.Dets[d]>>uint(s)&1 == 1) {
					t.Fatalf("%+v: bit (det=%d, shot=%d) mismatch", tc, d, s)
				}
			}
		}
		obs := gf2.NewVec(tc.obs)
		for s := 0; s < tc.shots; s++ {
			if err := obs.SetBytes(p.ObsFlips(s)); err != nil {
				t.Fatalf("%+v shot %d: obs SetBytes: %v", tc, s, err)
			}
			for o := 0; o < tc.obs; o++ {
				if obs.Get(o) != (b.Obs[o]>>uint(s)&1 == 1) {
					t.Fatalf("%+v: bit (obs=%d, shot=%d) mismatch", tc, o, s)
				}
			}
		}
		// round-trip: unpack restores the words, masked to the shot count
		var back Batch
		Unpack(&p, &back)
		mask := ^uint64(0)
		if tc.shots < 64 {
			mask = 1<<uint(tc.shots) - 1
		}
		for d := range b.Dets {
			if back.Dets[d] != b.Dets[d]&mask {
				t.Fatalf("%+v: unpack det word %d mismatch", tc, d)
			}
		}
		for o := range b.Obs {
			if back.Obs[o] != b.Obs[o]&mask {
				t.Fatalf("%+v: unpack obs word %d mismatch", tc, o)
			}
		}
	}
}

// buildMemexp builds a catalog code's memory-experiment circuit and DEM.
func buildMemexp(t testing.TB, codeName string, rounds int) (*circuit.Circuit, *dem.DEM) {
	t.Helper()
	css, err := codes.Get(codeName)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(css, rounds, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	d, err := dem.Extract(circ)
	if err != nil {
		t.Fatal(err)
	}
	return circ, d
}

// TestCircuitSamplerNoiseless: with p = 0 every detector and observable
// word is zero (the frame tracks deviation from the noiseless reference).
func TestCircuitSamplerNoiseless(t *testing.T) {
	css, err := codes.Get("rsurf3")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(css, 2, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	s := NewCircuitSampler(circ, 0, 1)
	var b Batch
	for blk := 0; blk < 3; blk++ {
		s.SampleBlock(&b)
		if b.Shots != BlockShots {
			t.Fatalf("block %d: %d shots", blk, b.Shots)
		}
		for d, w := range b.Dets {
			if w != 0 {
				t.Fatalf("block %d: detector %d fired in a noiseless run", blk, d)
			}
		}
		for o, w := range b.Obs {
			if w != 0 {
				t.Fatalf("block %d: observable %d flipped in a noiseless run", blk, o)
			}
		}
	}
}

// forcedParity returns the expected deterministic detector and observable
// parities of a circuit whose X-type noise channels ALL fire (q = 1),
// computed independently by XORing single-fault propagations of package
// pauli — the reference the word-parallel and scalar frame samplers must
// reproduce in every lane.
func forcedParity(t *testing.T, c *circuit.Circuit) (dets, obs []bool) {
	t.Helper()
	prop := pauli.New(c)
	measParity := make([]bool, c.NumMeas)
	for i, op := range c.Ops {
		if op.Type != circuit.OpNoiseX {
			continue
		}
		for _, m := range prop.Propagate(i, []int{op.Q0}, []pauli.Bits{pauli.X}) {
			measParity[m] = !measParity[m]
		}
	}
	dets = make([]bool, len(c.Detectors))
	for d, ms := range c.Detectors {
		for _, m := range ms {
			if measParity[m] {
				dets[d] = !dets[d]
			}
		}
	}
	obs = make([]bool, len(c.Observables))
	for o, ms := range c.Observables {
		for _, m := range ms {
			if measParity[m] {
				obs[o] = !obs[o]
			}
		}
	}
	return dets, obs
}

// TestCircuitSamplerForcedFaults pins the frame-propagation rules (H, CX,
// M, MR, R) against package pauli: with measurement noise at q = 1 every
// shot deterministically flips the same measurement set, so each detector
// word must be all-ones or all-zero exactly as the fault-XOR predicts, in
// both the batch and the scalar sampler.
func TestCircuitSamplerForcedFaults(t *testing.T) {
	css, err := codes.Get("rsurf3")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(css, 2, memexp.Noise{BeforeMeas: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantDets, wantObs := forcedParity(t, circ)

	s := NewCircuitSampler(circ, 1, 3) // p = 1: every channel fires
	var b Batch
	s.SampleBlock(&b)
	for d, w := range b.Dets {
		want := uint64(0)
		if wantDets[d] {
			want = ^uint64(0)
		}
		if w != want {
			t.Fatalf("batch: detector %d word %#x, want %#x", d, w, want)
		}
	}
	for o, w := range b.Obs {
		want := uint64(0)
		if wantObs[o] {
			want = ^uint64(0)
		}
		if w != want {
			t.Fatalf("batch: observable %d word %#x, want %#x", o, w, want)
		}
	}

	sc := NewScalarSampler(circ, 1, 3)
	syn, obsFlips := sc.SampleShared()
	for d, want := range wantDets {
		if syn.Get(d) != want {
			t.Fatalf("scalar: detector %d = %v, want %v", d, syn.Get(d), want)
		}
	}
	for o, want := range wantObs {
		if obsFlips.Get(o) != want {
			t.Fatalf("scalar: observable %d = %v, want %v", o, obsFlips.Get(o), want)
		}
	}
}

// TestForcedMixedFaults exercises H-conjugation of Z faults and CX
// back-propagation on a handcrafted circuit with deterministic (q = 1)
// X and Z channels.
func TestForcedMixedFaults(t *testing.T) {
	c := circuit.New(3)
	c.R(0, 1, 2)
	c.H(0)
	c.NoiseZ(1, 0) // Z on |+⟩-like frame: becomes X after the closing H
	c.CX(0, 1)
	c.NoiseX(1, 1) // X spreads through CX(1,2) to qubit 2
	c.CX(1, 2)
	c.H(0)
	m0 := c.M(0)
	m1 := c.M(1)
	m2 := c.M(2)
	c.Detector(m0)
	c.Detector(m1)
	c.Detector(m2)
	c.Detector(m1, m2)
	c.Observable(m0, m2)

	// expected: Z(0) → H → X(0) flips m0; X(1) propagates through CX(1,2)
	// flipping m1 and m2 (their XOR detector stays quiet). The observable
	// m0 ⊕ m2 sees both flips cancel.
	want := []bool{true, true, true, false}
	wantObs := []bool{false}

	s := NewCircuitSampler(c, 1, 9)
	var b Batch
	s.SampleBlock(&b)
	for d, wf := range want {
		wantWord := uint64(0)
		if wf {
			wantWord = ^uint64(0)
		}
		if b.Dets[d] != wantWord {
			t.Fatalf("detector %d word %#x, want %#x", d, b.Dets[d], wantWord)
		}
	}
	if wantObs[0] && b.Obs[0] != ^uint64(0) || !wantObs[0] && b.Obs[0] != 0 {
		t.Fatalf("observable word %#x, want all-%v", b.Obs[0], wantObs[0])
	}

	sc := NewScalarSampler(c, 1, 9)
	syn, obsFlips := sc.SampleShared()
	for d, wf := range want {
		if syn.Get(d) != wf {
			t.Fatalf("scalar detector %d = %v, want %v", d, syn.Get(d), wf)
		}
	}
	if obsFlips.Get(0) != wantObs[0] {
		t.Fatalf("scalar observable = %v, want %v", obsFlips.Get(0), wantObs[0])
	}
}

// TestSamplerDeterminism: equal seeds reproduce identical blocks; distinct
// seeds diverge. Covers all three samplers.
func TestSamplerDeterminism(t *testing.T) {
	circ, d := buildMemexp(t, "rsurf3", 2)

	t.Run("circuit", func(t *testing.T) {
		a := NewCircuitSampler(circ, 0.05, 42)
		b := NewCircuitSampler(circ, 0.05, 42)
		c := NewCircuitSampler(circ, 0.05, 43)
		var ba, bb, bc Batch
		same, diff := true, true
		for blk := 0; blk < 4; blk++ {
			a.SampleBlock(&ba)
			b.SampleBlock(&bb)
			c.SampleBlock(&bc)
			for i := range ba.Dets {
				if ba.Dets[i] != bb.Dets[i] {
					same = false
				}
				if ba.Dets[i] != bc.Dets[i] {
					diff = false
				}
			}
		}
		if !same {
			t.Error("equal seeds produced different blocks")
		}
		if diff {
			t.Error("distinct seeds produced identical blocks")
		}
	})

	t.Run("dem", func(t *testing.T) {
		a := NewDEMSampler(d, 0.05, 42)
		b := NewDEMSampler(d, 0.05, 42)
		var ba, bb Batch
		for blk := 0; blk < 4; blk++ {
			a.SampleBlock(&ba)
			b.SampleBlock(&bb)
			for i := range ba.Dets {
				if ba.Dets[i] != bb.Dets[i] {
					t.Fatalf("block %d: equal seeds diverged at detector %d", blk, i)
				}
			}
			for i := range ba.Obs {
				if ba.Obs[i] != bb.Obs[i] {
					t.Fatalf("block %d: equal seeds diverged at observable %d", blk, i)
				}
			}
		}
	})

	t.Run("scalar", func(t *testing.T) {
		a := NewScalarSampler(circ, 0.05, 42)
		b := NewScalarSampler(circ, 0.05, 42)
		for shot := 0; shot < 100; shot++ {
			sa, oa := a.SampleShared()
			sb, ob := b.SampleShared()
			if !sa.Equal(sb) || !oa.Equal(ob) {
				t.Fatalf("shot %d: equal seeds diverged", shot)
			}
		}
	})
}

// TestCursorMatchesManualBlocks: draining shots through a Cursor yields
// exactly the lane-ordered stream of manually drawn and packed blocks,
// with Lane tracking the block lane of each shot.
func TestCursorMatchesManualBlocks(t *testing.T) {
	_, d := buildMemexp(t, "rsurf3", 2)
	cur := NewCursor(NewDEMSampler(d, 0.03, 17).SampleBlock)
	manual := NewDEMSampler(d, 0.03, 17)
	var b Batch
	var p Packed
	for shot := 0; shot < 150; shot++ {
		lane := shot % BlockShots
		if lane == 0 {
			manual.SampleBlock(&b)
			Pack(&b, &p)
		}
		sb, ob := cur.Next()
		if cur.Lane() != lane {
			t.Fatalf("shot %d: cursor lane %d, want %d", shot, cur.Lane(), lane)
		}
		wantS, wantO := p.Syndrome(lane), p.ObsFlips(lane)
		for i := range wantS {
			if sb[i] != wantS[i] {
				t.Fatalf("shot %d: syndrome byte %d mismatch", shot, i)
			}
		}
		for i := range wantO {
			if ob[i] != wantO[i] {
				t.Fatalf("shot %d: obs byte %d mismatch", shot, i)
			}
		}
	}
}

// TestDEMSamplerMatchesPerShot: dem.Sampler hands out the lanes of the
// block stream — shot 64k+i of dem.NewSampler(d, p, seed) is lane i of
// block k of NewDEMSampler(d, p, seed) — over several blocks plus a
// partial one, and each shot's Mechs explain its syndrome and flips.
func TestDEMSamplerMatchesPerShot(t *testing.T) {
	for _, code := range []string{"rsurf3", "bb72"} {
		t.Run(code, func(t *testing.T) {
			_, d := buildMemexp(t, code, 2)
			const shots = 5*BlockShots + 23
			blocks := NewDEMSampler(d, 0.01, 5)
			perShot := dem.NewSampler(d, 0.01, 5)
			var b Batch
			var p Packed
			syn := gf2.NewVec(d.NumDets)
			obs := gf2.NewVec(d.NumObs)
			fired := gf2.NewVec(d.NumMechs())
			total := 0
			for shot := 0; shot < shots; shot++ {
				lane := shot % BlockShots
				if lane == 0 {
					blocks.SampleBlock(&b)
					Pack(&b, &p)
				}
				if err := syn.SetBytes(p.Syndrome(lane)); err != nil {
					t.Fatal(err)
				}
				if err := obs.SetBytes(p.ObsFlips(lane)); err != nil {
					t.Fatal(err)
				}
				gotSyn, gotObs := perShot.SampleShared()
				if !gotSyn.Equal(syn) || !gotObs.Equal(obs) {
					t.Fatalf("shot %d: per-shot sample differs from block lane %d", shot, lane)
				}
				fired.Zero()
				for _, m := range perShot.Mechs() {
					fired.Flip(m)
				}
				if !d.SyndromeOf(fired).Equal(syn) || !d.ObsOf(fired).Equal(obs) {
					t.Fatalf("shot %d: Mechs do not explain the syndrome and flips", shot)
				}
				total += len(perShot.Mechs())
			}
			if total == 0 {
				t.Fatalf("no mechanism fired in %d shots at p=0.01", shots)
			}
		})
	}
}
