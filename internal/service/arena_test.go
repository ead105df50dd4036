package service

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bpsf/internal/gf2"
	"bpsf/internal/sim"
)

// PR10 tentpole assertion (DESIGN.md §13): the full service path — socket
// read, parse, queue, decode, reply serialize, socket write — allocates
// NOTHING per request at steady state. The server runs in-process, so
// AllocsPerRun sees both sides of the loopback; exact zero means the
// frame arenas, job free lists and Pending recycling all hold, with no
// hidden allocation anywhere between them.
//
// The gate covers every served decoder kind (SpecKinds), and fails if one
// has no row: a one-syndrome BP-SF batch; a BP50 batch of 16 rsurf5 r5
// syndromes with more than two defects; a uf batch of 16 such syndromes,
// so every decode misses the light-syndrome memo and runs general-path
// growth with cluster solves; and a BP5-OSD-CS5 batch of 16 rsurf5 r5
// syndromes with more than four defects, so most decodes run OSD. The
// stream plane has one row too: a warm windowed uf stream, one round up
// and one commit back per operation.
func TestServicePathZeroAlloc(t *testing.T) {
	rows := []struct {
		name  string
		hello Hello
		batch int
		keep  func(gf2.Vec) bool
	}{
		{"bb72-bpsf", testHello(7), 1, func(gf2.Vec) bool { return true }},
		{"rsurf5-bp", Hello{Code: "rsurf5", Rounds: 5, P: 0.003, StreamSeed: 7, Spec: Spec{Kind: "bp", BPIters: 50}}, 16,
			func(s gf2.Vec) bool { return s.Weight() > 2 }},
		{"rsurf5-uf-memo-miss", Hello{Code: "rsurf5", Rounds: 5, P: 0.003, StreamSeed: 7, Spec: Spec{Kind: "uf"}}, 16,
			func(s gf2.Vec) bool { return s.Weight() > 2 }},
		// BP5 fails on most syndromes of weight > 4, so OSD runs on them
		{"rsurf5-bposd", Hello{Code: "rsurf5", Rounds: 5, P: 0.003, StreamSeed: 7, Spec: Spec{Kind: "bposd", BPIters: 5, OSDOrder: 5}}, 16,
			func(s gf2.Vec) bool { return s.Weight() > 4 }},
	}
	covered := make(map[string]bool)
	for _, tc := range rows {
		covered[tc.hello.Spec.Kind] = true
	}
	for _, kind := range SpecKinds() {
		if !covered[kind] {
			t.Errorf("served decoder kind %q has no zero-alloc row", kind)
		}
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, Options{PoolSize: 1, Logf: nil})
			var syndromes []gf2.Vec
			for seed := int64(3); len(syndromes) < tc.batch; seed++ {
				for _, syn := range sampleSyndromes(t, s, tc.hello, tc.batch, seed) {
					if tc.keep(syn) && len(syndromes) < tc.batch {
						syndromes = append(syndromes, syn)
					}
				}
			}

			c, err := Dial(s.Addr().String(), tc.hello)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			roundTrip := func() {
				pend, err := c.Submit(syndromes)
				if err != nil {
					t.Fatal(err)
				}
				resps, err := pend.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if len(resps) != len(syndromes) || resps[0].Shed {
					t.Fatalf("unexpected responses: %+v", resps)
				}
				c.Release(pend)
			}
			// Warm every arena: frame buffers grow to their steady size, the
			// job free list fills, the Pending recycles, decoder scratch
			// settles.
			for i := 0; i < 64; i++ {
				roundTrip()
			}
			if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
				t.Fatalf("steady-state service round trip allocates %.1f objects/op, want exactly 0", allocs)
			}
		})
	}
	t.Run("rsurf3-uf-stream", func(t *testing.T) {
		// 150 rounds leave room for the warm-up and the 101 measured
		// rounds in one stream: a W3C1 stream commits one window per round
		// once its first window fills.
		h := Hello{Code: "rsurf3", Rounds: 150, P: 0.003, StreamSeed: 7, Spec: Spec{Kind: "uf"}}
		s := startServer(t, Options{PoolSize: 1})
		syndrome := sampleSyndromes(t, s, h, 1, 3)[0]
		c, err := Dial(s.Addr().String(), h)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		open := func() (*ClientStream, []gf2.Vec) {
			st, err := c.OpenStream(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			dets := make([]int, st.NumRounds())
			for r := range dets {
				dets[r] = st.RoundDets(r)
			}
			return st, splitRounds(syndrome, dets)
		}
		// A first stream over the same rounds warms the pool's windowed
		// decoder, whose inner decoders each see one window per stream.
		st, rounds := open()
		for _, r := range rounds {
			if err := st.SendRounds([]gf2.Vec{r}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Finish(); err != nil {
			t.Fatal(err)
		}

		st, rounds = open()
		if err := st.SendRounds(rounds[:2]); err != nil {
			t.Fatal(err)
		}
		one := make([]gf2.Vec, 1)
		roundTrip := func() {
			one[0] = rounds[st.NextRound()]
			if err := st.SendRounds(one); err != nil {
				t.Fatal(err)
			}
			if _, err := st.NextCommit(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			roundTrip()
		}
		if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
			t.Fatalf("steady-state stream round trip allocates %.1f objects/op, want exactly 0", allocs)
		}
		if st.NextRound() >= len(rounds) {
			t.Fatalf("the measured rounds ran past the stream's %d rounds", len(rounds))
		}
	})
}

// BenchmarkServiceRoundTrip measures the warm loopback round trip the
// zero-alloc test gates — the -benchmem allocs/op column is the fastest
// way to localize a regression (pair with -memprofile).
func BenchmarkServiceRoundTrip(b *testing.B) {
	s := NewServer(Options{PoolSize: 1})
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer s.Drain(5 * time.Second)
	h := testHello(7)
	d, err := s.demFor(h.Code, h.Rounds)
	if err != nil {
		b.Fatal(err)
	}
	syndromes := []gf2.Vec{gf2.NewVec(d.NumDets)}
	c, err := Dial(s.Addr().String(), h)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pend, err := c.Submit(syndromes)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pend.Wait(); err != nil {
			b.Fatal(err)
		}
		c.Release(pend)
	}
}

// TestReadFrameIntoReuse pins the arena contract: a frame that fits the
// buffer's capacity reuses it (same backing array), a larger frame grows
// it, and the payload bytes are exact either way.
func TestReadFrameIntoReuse(t *testing.T) {
	small := bytes.Repeat([]byte{0xA5}, 16)
	big := bytes.Repeat([]byte{0x5A}, 256)
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	for _, p := range [][]byte{small, big, small} {
		if err := writeFrame(bw, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&wire)
	buf := make([]byte, 0, 64)
	p1, err := readFrameInto(br, DefaultMaxFrame, buf)
	if err != nil || !bytes.Equal(p1, small) {
		t.Fatalf("first read: %v %x", err, p1)
	}
	if &p1[0] != &buf[:1][0] {
		t.Fatal("16-byte frame did not reuse the 64-byte arena")
	}
	p2, err := readFrameInto(br, DefaultMaxFrame, p1)
	if err != nil || !bytes.Equal(p2, big) {
		t.Fatalf("second read: %v", err)
	}
	if cap(p2) < 256 {
		t.Fatalf("arena did not grow: cap %d", cap(p2))
	}
	p3, err := readFrameInto(br, DefaultMaxFrame, p2)
	if err != nil || !bytes.Equal(p3, small) {
		t.Fatalf("third read: %v", err)
	}
	if &p3[0] != &p2[:1][0] {
		t.Fatal("grown arena was not reused by the following frame")
	}
}

// TestAppendStatsReplyReusesBuffer pins the satellite-2 fix: the reply
// writer hands its scratch buffer to AppendStatsReply, which must append
// in place — the pre-PR10 call passed nil and allocated a fresh stats
// frame on every telemetry barrier.
func TestAppendStatsReplyReusesBuffer(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1})
	snap := s.Snapshot()
	first := AppendStatsReply(nil, snap)
	buf := make([]byte, 0, 2*len(first)+1024)
	out := AppendStatsReply(buf[:0], snap)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendStatsReply abandoned the caller's buffer")
	}
	if !bytes.Equal(out, first) {
		t.Fatal("reused-buffer encoding differs from fresh encoding")
	}
}

// TestParseBatchReplyIntoReuse pins the satellite-3 aliasing rule, the
// reply-side mirror of PR8's ErrHat fix: responses parsed into recycled
// scratch must carry PRIVATE ErrHat copies (never views of the frame
// arena, which the next read overwrites), while reusing both the
// Response slice and each slot's ErrHat capacity.
func TestParseBatchReplyIntoReuse(t *testing.T) {
	const mechBytes = 3
	mkPayload := func(fill byte) []byte {
		b := appendBatchReplyHeader(nil, 9, 2)
		for i := 0; i < 2; i++ {
			resp := Response{
				Success:    true,
				Iterations: 4 + i,
				FlipCount:  i,
				Latency:    time.Duration(100 + i),
				ErrHat:     bytes.Repeat([]byte{fill + byte(i)}, mechBytes),
			}
			b = appendResponse(b, &resp, mechBytes)
		}
		return b
	}

	payload := mkPayload(0x11)
	id, resps, err := parseBatchReplyInto(payload, mechBytes, nil)
	if err != nil || id != 9 || len(resps) != 2 {
		t.Fatalf("parse: id=%d n=%d err=%v", id, len(resps), err)
	}
	// mutate the frame arena after parsing: a view would see it
	for i := range payload {
		payload[i] = 0xFF
	}
	if !bytes.Equal(resps[0].ErrHat, bytes.Repeat([]byte{0x11}, mechBytes)) {
		t.Fatalf("ErrHat aliases the frame arena: %x", resps[0].ErrHat)
	}

	// second parse into the same scratch: slice and byte capacity reused
	prevSlot0 := &resps[0]
	prevBytes := &resps[0].ErrHat[0]
	payload2 := mkPayload(0x22)
	_, resps2, err := parseBatchReplyInto(payload2, mechBytes, resps)
	if err != nil {
		t.Fatal(err)
	}
	if &resps2[0] != prevSlot0 {
		t.Fatal("Response scratch slice was not reused")
	}
	if &resps2[0].ErrHat[0] != prevBytes {
		t.Fatal("ErrHat capacity was not reused")
	}
	if !bytes.Equal(resps2[1].ErrHat, bytes.Repeat([]byte{0x23}, mechBytes)) {
		t.Fatalf("second parse wrong: %x", resps2[1].ErrHat)
	}
}

// timeoutErr is a minimal net.Error with Timeout()==true, the shape a
// connection deadline produces.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestClassifyRecvErrTimeout pins the satellite-1 classification: a
// deadline expiry must NOT map to ErrBackendClosed — before PR10 a
// timeout could masquerade as backend death and trip fleet failover on a
// link that merely stalled.
func TestClassifyRecvErrTimeout(t *testing.T) {
	cases := []struct {
		name        string
		in          error
		wantBackend bool
		wantTimeout bool
	}{
		{"deadline", fmt.Errorf("read: %w", error(timeoutErr{})), false, true},
		{"os-deadline", fmt.Errorf("read: %w", os.ErrDeadlineExceeded), false, true},
		{"eof", io.EOF, true, false},
		{"short-frame", io.ErrUnexpectedEOF, true, false},
		{"self-close", net.ErrClosed, false, false},
	}
	for _, tc := range cases {
		out := classifyRecvErr(tc.in)
		if got := errors.Is(out, ErrBackendClosed); got != tc.wantBackend {
			t.Errorf("%s: ErrBackendClosed=%v, want %v (err: %v)", tc.name, got, tc.wantBackend, out)
		}
		if got := strings.Contains(out.Error(), "timed out"); got != tc.wantTimeout {
			t.Errorf("%s: timeout classification=%v, want %v (err: %v)", tc.name, got, tc.wantTimeout, out)
		}
	}
}

// TestIdleTimeoutDropsStalledSession: a session whose client goes quiet
// past Options.IdleTimeout is dropped (its goroutine and arenas freed);
// an active session is not.
func TestIdleTimeoutDropsStalledSession(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1, IdleTimeout: 100 * time.Millisecond})
	h := testHello(3)
	syndromes := sampleSyndromes(t, s, h, 1, 5)
	c, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Decode(syndromes); err != nil {
		t.Fatal(err)
	}
	// stall well past the idle bound; the server must close the session
	deadline := time.Now().Add(5 * time.Second)
	for {
		time.Sleep(150 * time.Millisecond)
		if _, err := c.Decode(syndromes); err != nil {
			return // dropped, as required
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled session survived idle timeout")
		}
	}
}

// TestUnixSocketSession: the UDS transport speaks the same protocol and,
// per the determinism contract, produces byte-identical responses to a
// TCP session with the same Hello.
func TestUnixSocketSession(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1})
	sock := filepath.Join(t.TempDir(), "bpsf.sock")
	if err := s.ListenUnix(sock); err != nil {
		t.Fatal(err)
	}
	h := testHello(11)
	syndromes := sampleSyndromes(t, s, h, 4, 17)

	overUDS, err := Dial("unix:"+sock, h)
	if err != nil {
		t.Fatal(err)
	}
	defer overUDS.Close()
	udsResps, err := overUDS.Decode(syndromes)
	if err != nil {
		t.Fatal(err)
	}

	overTCP, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer overTCP.Close()
	tcpResps, err := overTCP.Decode(syndromes)
	if err != nil {
		t.Fatal(err)
	}

	if len(udsResps) != len(tcpResps) {
		t.Fatalf("%d responses over UDS, %d over TCP", len(udsResps), len(tcpResps))
	}
	for i := range udsResps {
		u, tc := udsResps[i], tcpResps[i]
		if u.Success != tc.Success || u.Iterations != tc.Iterations ||
			u.FlipCount != tc.FlipCount || !bytes.Equal(u.ErrHat, tc.ErrHat) {
			t.Fatalf("response %d differs across transports: %+v vs %+v", i, u, tc)
		}
	}
}

// TestAffinityQueueConcurrency hammers the lock-free admission path from
// many goroutines with scattered affinities (including negatives, which
// must still map to a valid lane) — primarily a -race exercise of the
// per-worker queues, plus the accounting invariant.
func TestAffinityQueueConcurrency(t *testing.T) {
	p, err := newPool("stub", nil, func() (sim.Decoder, error) {
		return &stubDecoder{}, nil
	}, poolOptions{size: 4, queueDepth: 64, maxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 200
	resps := make([]Response, goroutines*perG)
	var wg sync.WaitGroup
	wg.Add(goroutines * perG)
	var launch sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		launch.Add(1)
		go func(g int) {
			defer launch.Done()
			for i := 0; i < perG; i++ {
				p.submit(&request{
					syndrome: gf2.NewVec(8),
					enqueued: time.Now(),
					affinity: (g-4)*31 + i, // scattered, sometimes negative
					resp:     &resps[g*perG+i],
					wg:       &wg,
				})
			}
		}(g)
	}
	launch.Wait()
	wg.Wait()
	p.close()
	st := p.stats()
	if st.Decoded != goroutines*perG {
		t.Fatalf("decoded %d of %d (shed q=%d d=%d)", st.Decoded, goroutines*perG, st.ShedQueue, st.ShedDeadline)
	}
	if st.Admitted != goroutines*perG {
		t.Fatalf("admitted %d, want %d", st.Admitted, goroutines*perG)
	}
}
