package bpsf

import (
	"testing"
)

func TestFacadeCodeCatalog(t *testing.T) {
	names := CodeNames()
	if len(names) != 10 {
		t.Fatalf("catalog has %d codes, want 10", len(names))
	}
	for _, n := range names {
		c, err := NewCode(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if c.N == 0 || c.K == 0 {
			t.Fatalf("%s: empty parameters", n)
		}
		if DefaultRounds(n) == 0 {
			t.Fatalf("%s: missing default rounds", n)
		}
	}
	if _, err := NewCode("bogus"); err == nil {
		t.Fatal("bogus code accepted")
	}
	if DefaultRounds("bogus") != 0 {
		t.Fatal("bogus rounds nonzero")
	}
}

func TestFacadeDecodeRoundTrip(t *testing.T) {
	code, err := NewCode("bb72")
	if err != nil {
		t.Fatal(err)
	}
	priors := UniformPriors(code.N, DepolarizingMarginal(0.01))
	dec, err := NewBPSFDecoder(code.HZ, priors, BPSFConfig{
		Init:    BPConfig{MaxIter: 50},
		PhiSize: 6, WMax: 1, Policy: Exhaustive,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := VecFromSupport(code.N, []int{3, 41})
	s := code.SyndromeOfX(e)
	out := dec.Decode(s)
	if !out.Success {
		t.Fatal("decode failed")
	}
	if !code.SyndromeOfX(out.ErrHat).Equal(s) {
		t.Fatal("syndrome mismatch")
	}
	resid := e.Clone()
	resid.Xor(out.ErrHat)
	if code.IsLogicalX(resid) {
		t.Fatal("weight-2 error caused logical failure")
	}
}

func TestFacadeBaselines(t *testing.T) {
	code, err := NewCode("bb72")
	if err != nil {
		t.Fatal(err)
	}
	priors := UniformPriors(code.N, 0.01)
	bpDec := NewBPDecoder(code.HZ, priors, BPConfig{MaxIter: 50})
	osdDec := NewBPOSDDecoder(code.HZ, priors, BPConfig{MaxIter: 50}, OSDConfig{Method: OSDCS, Order: 5})
	e := VecFromSupport(code.N, []int{10})
	s := code.SyndromeOfX(e)
	if out := bpDec.Decode(s); !out.Success {
		t.Fatal("BP failed on single error")
	}
	if out := osdDec.Decode(s); !out.Success {
		t.Fatal("BP-OSD failed on single error")
	}
}

func TestFacadeMemoryDEMAndMonteCarlo(t *testing.T) {
	code, err := Surface(3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildMemoryDEM(code, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumMechs() == 0 || d.NumDets == 0 {
		t.Fatal("empty DEM")
	}
	sampler := NewDEMSampler(d, 0.005, 1)
	sh := sampler.Sample()
	if sh.Syndrome.Len() != d.NumDets {
		t.Fatal("bad shot")
	}
	mk := func(h *Matrix, priors []float64) (Decoder, error) {
		return NewBPDecoder(h, priors, BPConfig{MaxIter: 30}), nil
	}
	res, err := RunCircuit(d, 2, mk, MCConfig{P: 0.005, Shots: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 50 {
		t.Fatal("wrong shot count")
	}
	capRes, err := RunCapacity(code, mk, MCConfig{P: 0.02, Shots: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if capRes.Shots != 50 {
		t.Fatal("wrong capacity shot count")
	}
}

func TestFacadeRawDecoder(t *testing.T) {
	code, err := NewCode("bb72")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewBPSFRaw(code.HZ, UniformPriors(code.N, 0.01), BPSFConfig{
		Init:    BPConfig{MaxIter: 4},
		PhiSize: 6, WMax: 1, Policy: Exhaustive,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := VecFromSupport(code.N, []int{1, 2, 3, 50, 60})
	s := code.SyndromeOfX(e)
	r := dec.Decode(s)
	if r.Success && !code.SyndromeOfX(r.ErrHat).Equal(s) {
		t.Fatal("flip-back invariant violated through facade")
	}
}

func TestFacadeDecodeService(t *testing.T) {
	srv := NewDecodeServer(ServeOptions{PoolSize: 1})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(0)
	h := ServiceHello{
		Code: "bb72", Rounds: 2, P: 0.003, StreamSeed: 3,
		Spec: ServiceSpec{Kind: "bp", BPIters: 30},
	}
	c, err := DialDecodeService(srv.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	code, err := NewCode("bb72")
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildMemoryDEM(code, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDets() != d.NumDets {
		t.Fatalf("session numDets=%d, DEM has %d", c.NumDets(), d.NumDets)
	}
	sampler := NewDEMSampler(d, 0.003, 9)
	resps, err := c.Decode([]Vec{sampler.Sample().Syndrome, sampler.Sample().Syndrome})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 {
		t.Fatalf("%d responses, want 2", len(resps))
	}
	for i, r := range resps {
		if r.Shed || r.Iterations == 0 {
			t.Fatalf("response %d: %+v", i, r)
		}
	}
	if ServiceRequestSeed(3, 0) == ServiceRequestSeed(3, 1) {
		t.Fatal("request seeds collide")
	}
}
