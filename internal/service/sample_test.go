package service

import (
	"bytes"
	"testing"

	"bpsf/internal/frame"
	"bpsf/internal/gf2"
	"bpsf/internal/sim"
)

// sampleTestHello uses the deterministic UF decoder so the replay
// comparisons are exact without relying on the reseeding path (which the
// BP-SF session tests already pin).
func sampleTestHello(streamSeed int64) Hello {
	return Hello{
		Code:       "rsurf3",
		Rounds:     2,
		P:          0.02,
		StreamSeed: streamSeed,
		Spec:       Spec{Kind: "uf"},
	}
}

// localSampleReplay reproduces a sample-only session's server-side
// sampled stream and verdicts from the public determinism contract
// (DESIGN.md §8): sampled shot j comes from the batch frame sampler
// seeded SampleSeed(streamSeed); in a session with no client batches the
// shared request index equals j, so decode j is reseeded
// RequestSeed(streamSeed, j); Failed is the logical verdict against the
// sampled observable flips.
func localSampleReplay(t *testing.T, s *Server, h Hello, n int) []Response {
	t.Helper()
	d, err := s.demFor(h.Code, h.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := h.Spec.NewDecoder(d.H, d.Priors(h.P))
	if err != nil {
		t.Fatal(err)
	}
	sampler := frame.NewDEMSampler(d, h.P, SampleSeed(h.StreamSeed))
	var blk frame.Batch
	var pk frame.Packed
	syn := gf2.NewVec(d.NumDets)
	want := gf2.NewVec(d.NumObs)
	obsHat := gf2.NewVec(d.NumObs)
	out := make([]Response, n)
	for i := 0; i < n; i++ {
		if i%frame.BlockShots == 0 {
			sampler.SampleBlock(&blk)
			frame.Pack(&blk, &pk)
		}
		if err := syn.SetBytes(pk.Syndrome(i % frame.BlockShots)); err != nil {
			t.Fatal(err)
		}
		if err := want.SetBytes(pk.ObsFlips(i % frame.BlockShots)); err != nil {
			t.Fatal(err)
		}
		sim.Reseed(dec, RequestSeed(h.StreamSeed, i))
		o := dec.Decode(syn)
		failed := !o.Success
		if !failed {
			d.Obs.MulVecInto(obsHat, o.ErrHat)
			failed = !obsHat.Equal(want)
		}
		out[i] = Response{
			Success:    o.Success,
			Failed:     failed,
			Iterations: o.Iterations,
			FlipCount:  o.ErrHat.Weight(),
			ErrHat:     o.ErrHat.AppendBytes(nil),
		}
	}
	return out
}

// TestServerSideSampling: SubmitSample responses are byte-identical to the
// local replay of the session's determinism contract — the sampled
// syndromes, the estimates, and the logical verdicts. The deep row sends
// one 150-shot sample to a single worker, which drains the backlog in
// coalesced claims of up to MaxBatch 32 requests.
func TestServerSideSampling(t *testing.T) {
	deep := sampleTestHello(633)
	deep.Code, deep.P = "bb72", 0.004
	for _, tc := range []struct {
		name   string
		opts   Options
		h      Hello
		splits []int
	}{
		// crosses two 64-shot block boundaries in uneven splits
		{"rsurf3-split", Options{PoolSize: 2}, sampleTestHello(99), []int{70, 50, 30}},
		{"bb72-deep-claims", Options{PoolSize: 1, MaxBatch: 32}, deep, []int{150}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := startServer(t, tc.opts)
			c, err := Dial(srv.Addr().String(), tc.h)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var got []Response
			for _, n := range tc.splits {
				pend, err := c.SubmitSample(n)
				if err != nil {
					t.Fatal(err)
				}
				resps, err := pend.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if len(resps) != n {
					t.Fatalf("sample reply carries %d responses, want %d", len(resps), n)
				}
				got = append(got, resps...)
			}
			want := localSampleReplay(t, srv, tc.h, len(got))
			fails := 0
			for i := range want {
				if got[i].Shed {
					t.Fatalf("response %d shed without a deadline", i)
				}
				if got[i].Success != want[i].Success || got[i].Failed != want[i].Failed ||
					got[i].Iterations != want[i].Iterations || got[i].FlipCount != want[i].FlipCount ||
					!bytes.Equal(got[i].ErrHat, want[i].ErrHat) {
					t.Fatalf("response %d diverges from the local replay:\n got %+v\nwant %+v", i, got[i], want[i])
				}
				if got[i].Failed {
					fails++
				}
			}
			// over 150 shots UF should fail at least once and succeed at
			// least once — guard against a degenerate all-one verdict
			if fails == 0 || fails == len(got) {
				t.Errorf("degenerate Failed pattern: %d/%d", fails, len(got))
			}
		})
	}
}

// TestServerSideSamplingSessionDeterminism: two sessions with equal
// StreamSeed receive identical sampled batches; a different seed diverges.
func TestServerSideSamplingSessionDeterminism(t *testing.T) {
	srv := startServer(t, Options{PoolSize: 2})
	run := func(seed int64) []Response {
		c, err := Dial(srv.Addr().String(), sampleTestHello(seed))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pend, err := c.SubmitSample(80)
		if err != nil {
			t.Fatal(err)
		}
		resps, err := pend.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return resps
	}
	a, b, other := run(7), run(7), run(8)
	diverged := false
	for i := range a {
		if !bytes.Equal(a[i].ErrHat, b[i].ErrHat) || a[i].Failed != b[i].Failed {
			t.Fatalf("equal seeds diverged at response %d", i)
		}
		if !bytes.Equal(a[i].ErrHat, other[i].ErrHat) || a[i].Failed != other[i].Failed {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different StreamSeeds produced identical sampled batches")
	}
}

// TestSubmitSampleValidation: count bounds are enforced on both sides.
func TestSubmitSampleValidation(t *testing.T) {
	srv := startServer(t, Options{PoolSize: 1})
	c, err := Dial(srv.Addr().String(), sampleTestHello(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.SubmitSample(0); err == nil {
		t.Error("SubmitSample(0) accepted")
	}
	if _, err := c.SubmitSample(c.MaxBatch() + 1); err == nil {
		t.Error("SubmitSample above MaxBatch accepted")
	}
	// a valid request still works afterwards
	pend, err := c.SubmitSample(3)
	if err != nil {
		t.Fatal(err)
	}
	if resps, err := pend.Wait(); err != nil || len(resps) != 3 {
		t.Fatalf("valid sample after rejected ones: %v (%d responses)", err, len(resps))
	}
}

// TestSampledAndClientBatchesInterleave: sample requests and ordinary
// syndrome batches share the session's reqIndex stream, so interleaving
// them keeps every decode at its deterministic seed (client-supplied
// syndromes never carry Failed).
func TestSampledAndClientBatchesInterleave(t *testing.T) {
	srv := startServer(t, Options{PoolSize: 2})
	h := sampleTestHello(5)
	c, err := Dial(srv.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	syndromes := sampleSyndromes(t, srv, h, 4, 1234)
	p1, err := c.SubmitSample(10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Submit(syndromes)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 10 || len(r2) != 4 {
		t.Fatalf("reply sizes %d/%d, want 10/4", len(r1), len(r2))
	}
	for i, r := range r2 {
		if r.Failed {
			t.Errorf("client-supplied syndrome %d reported Failed", i)
		}
	}
}

// TestClientAndServerSampleSameShots: client-side sampling as DriveLoad
// does it (dem.NewSampler seeded SampleSeed(StreamSeed)) draws the shots
// the server samples for the same Hello. A session uploading those
// syndromes and a SubmitSample session therefore return the same
// estimates, convergence and iteration counts (Failed is reported only
// for server-sampled shots, and latency differs), and DriveLoad's two
// sampling modes decode alike under one Seed.
func TestClientAndServerSampleSameShots(t *testing.T) {
	srv := startServer(t, Options{PoolSize: 2})
	h := Hello{Code: "bb72", Rounds: 2, P: 0.004, StreamSeed: 77, Spec: Spec{Kind: "bp", BPIters: 8}}
	const n, chunk = 150, 32 // crosses two block boundaries
	syndromes := sampleSyndromes(t, srv, h, n, SampleSeed(h.StreamSeed))
	run := func(submit func(c *Client, from, to int) (*Pending, error)) []Response {
		c, err := Dial(srv.Addr().String(), h)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var out []Response
		for from := 0; from < n; from += chunk {
			pend, err := submit(c, from, min(from+chunk, n))
			if err != nil {
				t.Fatal(err)
			}
			resps, err := pend.Wait()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resps...)
		}
		return out
	}
	client := run(func(c *Client, from, to int) (*Pending, error) { return c.Submit(syndromes[from:to]) })
	server := run(func(c *Client, from, to int) (*Pending, error) { return c.SubmitSample(to - from) })
	unconverged := 0
	for i := range client {
		a, b := client[i], server[i]
		if a.Success != b.Success || a.Iterations != b.Iterations || !bytes.Equal(a.ErrHat, b.ErrHat) {
			t.Fatalf("shot %d: client-sampled (success %v, %d iterations, %d flips), server-sampled (%v, %d, %d)",
				i, a.Success, a.Iterations, a.FlipCount, b.Success, b.Iterations, b.FlipCount)
		}
		if !a.Success {
			unconverged++
		}
	}
	// BP8 on bb72 leaves some shots unconverged: the comparison covers both outcomes
	if unconverged == 0 || unconverged == n {
		t.Fatalf("degenerate corpus: %d/%d shots unconverged", unconverged, n)
	}

	d, err := srv.demFor(h.Code, h.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	var results [2]LoadResult
	for i, serverSample := range []bool{false, true} {
		results[i], err = DriveLoad(srv.Addr().String(), LoadConfig{
			Code: h.Code, Rounds: h.Rounds, P: h.P, Spec: h.Spec,
			Sessions: 2, Shots: n, BatchSize: chunk, ServerSample: serverSample, DEM: d, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if results[0].Decoded != n || results[0].DecodeFailures != results[1].DecodeFailures || results[1].Decoded != n {
		t.Fatalf("DriveLoad client-sampled: %d decoded, %d decode failures; server-sampled: %d, %d",
			results[0].Decoded, results[0].DecodeFailures, results[1].Decoded, results[1].DecodeFailures)
	}
}
