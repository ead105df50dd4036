package service

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/sim"
)

// testHello is the session shape shared by the end-to-end tests: a small
// code at a rate high enough that BP-SF post-processing (and with it the
// trial RNG the determinism contract protects) actually runs.
func testHello(streamSeed int64) Hello {
	return Hello{
		Code:       "bb72",
		Rounds:     2,
		P:          0.02,
		StreamSeed: streamSeed,
		Spec:       Spec{Kind: "bpsf", BPIters: 30, Phi: 12, WMax: 2, NS: 2},
	}
}

func startServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := NewServer(opts)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { s.Drain(5 * time.Second) })
	return s
}

// sampleSyndromes draws n owned syndrome vectors from the session's DEM.
func sampleSyndromes(t *testing.T, s *Server, h Hello, n int, seed int64) []gf2.Vec {
	t.Helper()
	d, err := s.demFor(h.Code, h.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dem.NewSampler(d, h.P, seed)
	out := make([]gf2.Vec, n)
	for i := range out {
		syndrome, _ := sampler.SampleShared()
		out[i] = syndrome.Clone()
	}
	return out
}

// directResponses decodes the stream locally under the session's
// determinism contract: request i reseeded with RequestSeed(streamSeed, i).
func directResponses(t *testing.T, s *Server, h Hello, syndromes []gf2.Vec) []Response {
	t.Helper()
	d, err := s.demFor(h.Code, h.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := h.Spec.NewDecoder(d.H, d.Priors(h.P))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Response, len(syndromes))
	for i, syn := range syndromes {
		sim.Reseed(dec, RequestSeed(h.StreamSeed, i))
		o := dec.Decode(syn)
		out[i] = Response{
			Success:    o.Success,
			Iterations: o.Iterations,
			FlipCount:  o.ErrHat.Weight(),
			ErrHat:     o.ErrHat.AppendBytes(nil),
		}
	}
	return out
}

// checkAgainstDirect returns an error (not t.Fatal) so session goroutines
// can report through their error channel.
func checkAgainstDirect(got, want []Response, label string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d responses, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Shed {
			return fmt.Errorf("%s: response %d shed without a deadline", label, i)
		}
		if got[i].Success != want[i].Success || got[i].Iterations != want[i].Iterations ||
			got[i].FlipCount != want[i].FlipCount || !bytes.Equal(got[i].ErrHat, want[i].ErrHat) {
			return fmt.Errorf("%s: response %d diverges from direct decode:\n got %+v\nwant %+v",
				label, i, got[i], want[i])
		}
	}
	return nil
}

// TestSessionMatchesDirectDecode is the determinism contract end to end: a
// session replaying a fixed syndrome stream under a fixed stream seed gets
// byte-identical estimates to direct library decodes, batching and pool
// interleaving notwithstanding.
func TestSessionMatchesDirectDecode(t *testing.T) {
	s := startServer(t, Options{PoolSize: 3, MaxBatch: 4})
	h := testHello(411)
	syndromes := sampleSyndromes(t, s, h, 41, 7)
	want := directResponses(t, s, h, syndromes)

	c, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NumDets() != syndromes[0].Len() {
		t.Fatalf("session numDets=%d, syndrome=%d", c.NumDets(), syndromes[0].Len())
	}

	// uneven batch split exercises the cross-batch request index
	var got []Response
	for off := 0; off < len(syndromes); {
		end := off + 7
		if end > len(syndromes) {
			end = len(syndromes)
		}
		resps, err := c.Decode(syndromes[off:end])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resps...)
		off = end
	}
	if err := checkAgainstDirect(got, want, "session"); err != nil {
		t.Fatal(err)
	}

	// at least one decode must have exercised the post-processing RNG, or
	// this test proves nothing about trial-stream determinism
	post := 0
	for _, r := range want {
		if r.Iterations > h.Spec.BPIters {
			post++
		}
	}
	if post == 0 {
		t.Fatal("no decode used post-processing; raise P or shots")
	}
}

// TestConcurrentSessions runs 8 pipelined sessions against one warm pool
// under -race: every session must observe its own deterministic stream.
func TestConcurrentSessions(t *testing.T) {
	s := startServer(t, Options{PoolSize: 4, MaxBatch: 8, QueueDepth: 256})
	const sessions = 8
	const shots = 10

	// streams and their direct-decode references are prepared on the test
	// goroutine; session goroutines only talk to the server
	hellos := make([]Hello, sessions)
	streams := make([][]gf2.Vec, sessions)
	wants := make([][]Response, sessions)
	for k := 0; k < sessions; k++ {
		hellos[k] = testHello(int64(1000 + k))
		streams[k] = sampleSyndromes(t, s, hellos[k], shots, int64(50+k))
		wants[k] = directResponses(t, s, hellos[k], streams[k])
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for k := 0; k < sessions; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h, syndromes, want := hellos[k], streams[k], wants[k]
			c, err := Dial(s.Addr().String(), h)
			if err != nil {
				errs <- fmt.Errorf("session %d: %w", k, err)
				return
			}
			defer c.Close()
			// pipeline all batches before collecting any reply
			var pendings []*Pending
			for off := 0; off < shots; off += 3 {
				end := off + 3
				if end > shots {
					end = shots
				}
				p, err := c.Submit(syndromes[off:end])
				if err != nil {
					errs <- fmt.Errorf("session %d submit: %w", k, err)
					return
				}
				pendings = append(pendings, p)
			}
			var got []Response
			for _, p := range pendings {
				resps, err := p.Wait()
				if err != nil {
					errs <- fmt.Errorf("session %d wait: %w", k, err)
					return
				}
				got = append(got, resps...)
			}
			if err := checkAgainstDirect(got, want, fmt.Sprintf("session %d", k)); err != nil {
				errs <- err
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	stats := s.Stats()
	if len(stats) != 1 {
		t.Fatalf("%d pools, want 1 (sessions share the warm pool)", len(stats))
	}
	if want := uint64(sessions * shots); stats[0].Decoded != want {
		t.Fatalf("decoded %d, want %d", stats[0].Decoded, want)
	}
	if stats[0].Latency.N != sessions*shots || stats[0].Latency.P999 < stats[0].Latency.P50 {
		t.Fatalf("latency histogram inconsistent: %+v", stats[0].Latency)
	}
}

// TestDeadlineShedding: a deadline far below the queue handoff time sheds
// every request, decoders never run, and the stats account for the drops.
func TestDeadlineShedding(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1, QueueDepth: 4})
	h := testHello(9)
	h.Deadline = time.Nanosecond
	syndromes := sampleSyndromes(t, s, h, 12, 3)

	c, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resps, err := c.Decode(syndromes)
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for i, r := range resps {
		if r.Shed {
			shed++
			if r.Success || r.Iterations != 0 {
				t.Fatalf("shed response %d carries decode output: %+v", i, r)
			}
		}
	}
	if shed == 0 {
		t.Fatal("1ns deadline shed nothing")
	}
	st := s.Stats()[0]
	if st.ShedQueue+st.ShedDeadline != uint64(shed) {
		t.Fatalf("stats count %d+%d shed, responses say %d", st.ShedQueue, st.ShedDeadline, shed)
	}
	if st.Decoded != uint64(len(resps)-shed) {
		t.Fatalf("decoded=%d, want %d", st.Decoded, len(resps)-shed)
	}
}

// TestQueueOverflowSheds drives a 1-worker, depth-1 pool through a stub
// decoder slow enough that a burst must overflow the admission queue.
func TestQueueOverflowSheds(t *testing.T) {
	p, err := newPool("stub", nil, func() (sim.Decoder, error) {
		return &stubDecoder{delay: 2 * time.Millisecond}, nil
	}, poolOptions{size: 1, queueDepth: 1, maxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()

	const n = 32
	resps := make([]Response, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.submit(&request{
			syndrome: gf2.NewVec(8),
			enqueued: time.Now(),
			deadline: time.Second, // non-blocking admission path
			resp:     &resps[i],
			wg:       &wg,
		})
	}
	wg.Wait()
	st := p.stats()
	if st.ShedQueue == 0 {
		t.Fatal("burst of 32 into a depth-1 queue shed nothing")
	}
	if st.Decoded+st.ShedQueue+st.ShedDeadline != n {
		t.Fatalf("requests unaccounted: %+v", st)
	}
}

// TestAdaptiveCoalescing: a backlogged queue must be drained in multi-item
// sweeps (average claimed batch > 1) capped at maxBatch.
func TestAdaptiveCoalescing(t *testing.T) {
	block := make(chan struct{})
	p, err := newPool("stub", nil, func() (sim.Decoder, error) {
		return &stubDecoder{gate: block}, nil
	}, poolOptions{size: 1, queueDepth: 64, maxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}

	const n = 33
	resps := make([]Response, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.submit(&request{syndrome: gf2.NewVec(8), enqueued: time.Now(), resp: &resps[i], wg: &wg})
	}
	close(block) // release the worker against a fully built backlog
	wg.Wait()
	p.close()
	st := p.stats()
	if st.AvgBatch <= 1 {
		t.Fatalf("backlog drained one-by-one (avg batch %.2f)", st.AvgBatch)
	}
	if st.AvgBatch > 8 {
		t.Fatalf("avg batch %.2f exceeds maxBatch", st.AvgBatch)
	}
}

// stubDecoder is a controllable sim.Decoder for pool unit tests.
type stubDecoder struct {
	delay time.Duration
	gate  chan struct{} // when set, the first Decode blocks until closed
}

func (d *stubDecoder) Name() string { return "stub" }

func (d *stubDecoder) Decode(s gf2.Vec) sim.Outcome {
	if d.gate != nil {
		<-d.gate
	}
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	return sim.Outcome{Success: true, ErrHat: gf2.NewVec(8), Iterations: 1}
}

// TestPoolThroughputScales asserts the acceptance criterion: decode
// throughput rises monotonically from pool size 1 → 2. Each stub decode
// takes a fixed wall time without holding a core, so the measurement is
// about the pool's concurrency — any lock, lane or queue that serialized
// its workers would stall the second one — and not about how many cores
// other processes leave idle: compute-bound stubs scaled only 1.0–1.3×
// while another package's tests saturated a 2-core host, which let noise
// invert the comparison. Each pool size is timed as the best of three
// runs so one descheduled run does not decide the comparison. Each
// request carries its own affinity, as distinct sessions do; requests of
// one session all land on one worker's lane and would not show the
// pool's scaling.
func TestPoolThroughputScales(t *testing.T) {
	run := func(size int) time.Duration {
		p, err := newPool("stub", nil, func() (sim.Decoder, error) {
			return &stubDecoder{delay: 500 * time.Microsecond}, nil
		}, poolOptions{size: size, queueDepth: 512, maxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		const n = 256
		resps := make([]Response, n)
		var wg sync.WaitGroup
		wg.Add(n)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.submit(&request{syndrome: gf2.NewVec(8), affinity: i, enqueued: time.Now(), resp: &resps[i], wg: &wg})
		}
		wg.Wait()
		el := time.Since(t0)
		p.close()
		return el
	}
	best := func(size int) time.Duration {
		el := run(size)
		for i := 0; i < 2; i++ {
			el = min(el, run(size))
		}
		return el
	}
	run(1) // warm up timers and the scheduler
	t1 := best(1)
	t2 := best(2)
	tput1 := 256 / t1.Seconds()
	tput2 := 256 / t2.Seconds()
	t.Logf("pool=1: %.0f decodes/s, pool=2: %.0f decodes/s", tput1, tput2)
	if tput2 <= tput1 {
		t.Fatalf("throughput did not rise with pool size: %.0f/s → %.0f/s", tput1, tput2)
	}
}

// TestDrain: after Drain, the listener refuses new sessions and all
// admitted work has completed.
func TestDrain(t *testing.T) {
	s := NewServer(Options{PoolSize: 2})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	h := testHello(5)
	syndromes := sampleSyndromes(t, s, h, 10, 11)

	c, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	resps, err := c.Decode(syndromes)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	stats := s.Drain(5 * time.Second)
	if len(stats) != 1 || stats[0].Decoded != uint64(len(resps)) {
		t.Fatalf("drain stats wrong: %+v", stats)
	}
	if _, err := Dial(s.Addr().String(), h); err == nil {
		t.Fatal("drained server accepted a session")
	}
	// Drain is idempotent
	if again := s.Drain(time.Second); len(again) != 1 {
		t.Fatal("second drain lost stats")
	}
}

// TestServerRejectsBadHello: protocol-level rejections reach the client as
// errors, and local validation catches them before dialing.
func TestServerRejectsBadHello(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Hello{Code: "nope", P: 0.01, Spec: Spec{Kind: "bp", BPIters: 10}}); err == nil {
		t.Fatal("unknown code dialed anyway")
	}
	h := testHello(1)
	if _, err := Dial("127.0.0.1:1", func() Hello { h.P = 1.5; return h }()); err == nil {
		t.Fatal("bad error rate accepted")
	}
}
