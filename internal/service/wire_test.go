package service

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"bpsf/internal/gf2"
	"bpsf/internal/obs"
)

// TestCanonicalFrameBatchReply pins the replay-comparison rule: two batch
// replies that differ only in per-response service latency canonicalize to
// the same bytes, while any decode-output difference survives.
func TestCanonicalFrameBatchReply(t *testing.T) {
	const mechBytes = 2
	mk := func(lat1, lat2 time.Duration, errHat byte) []byte {
		b := appendBatchReplyHeader(nil, 7, 2)
		b = appendResponse(b, &Response{Success: true, Iterations: 3, FlipCount: 1,
			Latency: lat1, ErrHat: []byte{errHat, 0}}, mechBytes)
		b = appendResponse(b, &Response{Iterations: 9, Latency: lat2,
			ErrHat: []byte{0, 0xF0}}, mechBytes)
		return b
	}
	a := mk(time.Millisecond, 3*time.Microsecond, 0xAA)
	b := mk(42*time.Second, 0, 0xAA)
	if bytes.Equal(a, b) {
		t.Fatal("test frames should differ in raw latency bytes")
	}
	if ca, cb := AppendCanonicalFrame(nil, a, mechBytes), AppendCanonicalFrame(nil, b, mechBytes); !bytes.Equal(ca, cb) {
		t.Fatalf("latency-only difference survives canonicalization:\n %x\n %x", ca, cb)
	}
	c := mk(time.Millisecond, 3*time.Microsecond, 0xAB)
	if bytes.Equal(AppendCanonicalFrame(nil, a, mechBytes), AppendCanonicalFrame(nil, c, mechBytes)) {
		t.Fatal("estimate difference erased by canonicalization")
	}
	// canonicalization must not corrupt the frame: it still parses, with
	// latency zeroed and everything else intact
	id, resps, err := parseBatchReplyInto(AppendCanonicalFrame(nil, a, mechBytes), mechBytes, nil)
	if err != nil {
		t.Fatalf("canonical frame no longer parses: %v", err)
	}
	if id != 7 || len(resps) != 2 || resps[0].Latency != 0 || resps[1].Latency != 0 ||
		!resps[0].Success || resps[0].Iterations != 3 || !bytes.Equal(resps[0].ErrHat, []byte{0xAA, 0}) {
		t.Fatalf("canonical frame parsed wrong: id=%d resps=%+v", id, resps)
	}
}

func TestCanonicalFrameStreamCommit(t *testing.T) {
	mk := func(lat time.Duration, mech byte) []byte {
		return appendStreamCommit(nil, streamCommitMsg{id: 4, window: 2,
			flags: flagStreamWindowOK, firstRound: 2, endRound: 4,
			latency: lat, mechs: []byte{mech}})
	}
	if !bytes.Equal(AppendCanonicalFrame(nil, mk(time.Second, 5), 1), AppendCanonicalFrame(nil, mk(time.Millisecond, 5), 1)) {
		t.Fatal("commit latency difference survives canonicalization")
	}
	if bytes.Equal(AppendCanonicalFrame(nil, mk(time.Second, 5), 1), AppendCanonicalFrame(nil, mk(time.Second, 6), 1)) {
		t.Fatal("commit mech difference erased by canonicalization")
	}
}

// TestCanonicalFramePassthrough: non-reply frames and malformed replies
// come back unchanged (a copy), so a layout mismatch fails the replay
// comparison loudly instead of masking bytes at a wrong offset.
func TestCanonicalFramePassthrough(t *testing.T) {
	hello, _ := appendHello(nil, Hello{Code: "bb72", P: 0.01, Spec: Spec{Kind: "bp", BPIters: 10}})
	truncated := appendBatchReplyHeader(nil, 1, 3) // claims 3 items, carries none
	for _, payload := range [][]byte{hello, truncated, {MsgStreamCommit, 1, 2}, nil} {
		got := AppendCanonicalFrame(nil, payload, 4)
		if !bytes.Equal(got, payload) {
			t.Fatalf("passthrough frame modified: %x -> %x", payload, got)
		}
		if len(payload) > 0 {
			got[0] ^= 0xFF
			if payload[0] == got[0] {
				t.Fatal("AppendCanonicalFrame returned an alias, not a copy")
			}
		}
	}
}

// TestStatsReplyBackendsRoundTrip: the fleet section survives the wire
// both structurally and byte-identically (the canonical-encoding contract
// the fuzz round-trip extends to).
func TestStatsReplyBackendsRoundTrip(t *testing.T) {
	snap := ServerSnapshot{
		Uptime:        time.Minute,
		SessionsTotal: 5, SessionsActive: 2,
		Backends: []BackendStats{
			{Name: "b0", Addr: "127.0.0.1:9000", Healthy: true,
				Sessions: 2, SessionsTotal: 4, Requests: 100, Failovers: 1, Replayed: 37},
			{Name: "b1", Addr: "127.0.0.1:9001", Healthy: true, Draining: true},
			{Name: "b2", Addr: "127.0.0.1:9002"},
		},
	}
	enc := AppendStatsReply(nil, snap)
	got, err := ParseStatsReply(enc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got.Backends, snap.Backends) {
		t.Fatalf("backends diverge:\n got %+v\nwant %+v", got.Backends, snap.Backends)
	}
	if re := AppendStatsReply(nil, got); !bytes.Equal(re, enc) {
		t.Fatalf("re-encode diverges:\n got %x\nwant %x", re, enc)
	}
}

// TestSessionKeyNormalization: a Hello relying on the catalog's default
// round count and one spelling it out hash to the same routing key once
// normalized — the property that keeps warm-pool affinity intact.
func TestSessionKeyNormalization(t *testing.T) {
	spec := Spec{Kind: "bp", BPIters: 10}
	implicit, err := ValidateHello(Hello{Code: "bb72", P: 0.01, Spec: spec})
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if implicit.Rounds == 0 {
		t.Fatal("normalization left Rounds at 0")
	}
	explicit, err := ValidateHello(Hello{Code: "bb72", Rounds: implicit.Rounds, P: 0.01, Spec: spec})
	if err != nil {
		t.Fatalf("normalize explicit: %v", err)
	}
	if k1, k2 := SessionKey(implicit), SessionKey(explicit); k1 != k2 {
		t.Fatalf("normalized keys differ: %q vs %q", k1, k2)
	}
}

func TestMergeSnapshots(t *testing.T) {
	var h1, h2 obs.Histogram
	h1.Observe(time.Millisecond)
	h2.Observe(4 * time.Millisecond)
	h2.Observe(2 * time.Microsecond)
	a := ServerSnapshot{
		Uptime:        time.Minute,
		SessionsTotal: 3, SessionsActive: 1,
		Pools:        []PoolStats{{Pool: "bb72/r2/p0.01/bp", Decoded: 10, Latency: h1.Snapshot()}},
		Streams:      StreamStats{Opened: 2, Windows: 6},
		StreamStages: obs.StageSnapshot{Total: h1.Snapshot()},
	}
	b := ServerSnapshot{
		Uptime:        3 * time.Minute,
		SessionsTotal: 4, SessionsActive: 2,
		Pools:        []PoolStats{{Pool: "bb72/r2/p0.01/bp", Decoded: 7, Latency: h2.Snapshot()}},
		Streams:      StreamStats{Opened: 1, Windows: 3},
		StreamStages: obs.StageSnapshot{Total: h2.Snapshot()},
	}
	m := MergeSnapshots([]NamedSnapshot{{Name: "b0", Snap: a}, {Name: "b1", Snap: b}})
	if m.Uptime != 3*time.Minute {
		t.Fatalf("merged uptime %v, want the oldest backend's 3m", m.Uptime)
	}
	if m.SessionsTotal != 7 || m.SessionsActive != 3 {
		t.Fatalf("merged sessions %d/%d, want 7/3", m.SessionsTotal, m.SessionsActive)
	}
	if len(m.Pools) != 2 || m.Pools[0].Pool != "b0|bb72/r2/p0.01/bp" || m.Pools[1].Pool != "b1|bb72/r2/p0.01/bp" {
		t.Fatalf("merged pools lost backend identity: %+v", m.Pools)
	}
	if m.Streams.Opened != 3 || m.Streams.Windows != 9 || m.StreamStages.Total.N != 3 {
		t.Fatalf("merged streams wrong: %+v", m.Streams)
	}
	if got := MergeSnapshots(nil); !reflect.DeepEqual(got, ServerSnapshot{}) {
		t.Fatalf("empty merge non-zero: %+v", got)
	}
}

// stubAccept runs a minimal hand-rolled session acceptance on ln: read
// the Hello frame, write a fixed HelloAck, then hand the connection to
// fn. It lets tests drive exact wire behaviour (like abrupt close) that
// a real Server never exhibits.
func stubAccept(t *testing.T, ln net.Listener, numDets, numMechs int, fn func(*Conn)) {
	t.Helper()
	nc, err := ln.Accept()
	if err != nil {
		t.Errorf("stub accept: %v", err)
		return
	}
	conn := NewConn(nc, 0, 0)
	if _, err := conn.Read(); err != nil {
		t.Errorf("stub reading hello: %v", err)
		conn.Close()
		return
	}
	ack := appendHelloAck(nil, helloAck{sessionID: 1, numDets: uint32(numDets), numMechs: uint32(numMechs), poolSize: 1})
	if err := conn.Write(ack); err != nil {
		t.Errorf("stub ack: %v", err)
	}
	fn(conn)
}

// TestErrBackendClosed: a backend that drops the connection mid-session
// surfaces as ErrBackendClosed on every waiter, so redialing callers (the
// gateway, bpsf-load) can tell backend death from their own Close.
func TestErrBackendClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		stubAccept(t, ln, 8, 8, func(conn *Conn) {
			// swallow the batch, then die abruptly without replying
			conn.Read()
			conn.Close()
		})
	}()
	c, err := Dial(ln.Addr().String(), Hello{Code: "bb72", P: 0.01, Spec: Spec{Kind: "bp", BPIters: 10}})
	if err != nil {
		t.Fatalf("dial stub: %v", err)
	}
	defer c.Close()
	p, err := c.Submit([]gf2.Vec{gf2.NewVec(8)})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := p.Wait(); !errors.Is(err, ErrBackendClosed) {
		t.Fatalf("mid-stream connection loss surfaced as %v, want ErrBackendClosed", err)
	}
	// and the session error is sticky in the same shape
	if _, err := c.Submit([]gf2.Vec{gf2.NewVec(8)}); !errors.Is(err, ErrBackendClosed) {
		t.Fatalf("post-death submit surfaced as %v, want ErrBackendClosed", err)
	}
	<-done
}

// TestClientCloseIsNotBackendClosed: hanging up locally must never look
// like backend death, or a redialing caller would fail over on its own
// shutdown path.
func TestClientCloseIsNotBackendClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		stubAccept(t, ln, 8, 8, func(conn *Conn) {
			// hold the connection open until the client hangs up
			conn.Read()
			conn.Close()
		})
	}()
	c, err := Dial(ln.Addr().String(), Hello{Code: "bb72", P: 0.01, Spec: Spec{Kind: "bp", BPIters: 10}})
	if err != nil {
		t.Fatalf("dial stub: %v", err)
	}
	c.Close()
	if _, err := c.Submit([]gf2.Vec{gf2.NewVec(8)}); err == nil || errors.Is(err, ErrBackendClosed) {
		t.Fatalf("client-initiated close surfaced as %v, want a non-ErrBackendClosed error", err)
	}
	<-done
}
