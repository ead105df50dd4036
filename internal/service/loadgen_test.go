package service

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bpsf/internal/codes"
	"bpsf/internal/decoding"
	"bpsf/internal/dem"
	"bpsf/internal/window"
)

// stallServer is a protocol-correct decode server that accepts sessions
// and swallows every batch without ever replying, then drops all
// connections when killed. It reproduces the failure mode of a backend
// dying mid-open-loop: every submitted batch is in flight when the
// session breaks, so the only report of the loss is Pending.Wait's error.
type stallServer struct {
	ln       net.Listener
	mu       sync.Mutex
	conns    []net.Conn
	accepted chan struct{} // one tick per batch/sample frame received
}

func newStallServer(t *testing.T) *stallServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stallServer{ln: ln, accepted: make(chan struct{}, 1024)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go s.session(conn)
		}
	}()
	t.Cleanup(s.kill)
	return s
}

func (s *stallServer) session(nc net.Conn) {
	conn := NewConn(nc, 0, 0)
	payload, err := conn.Read()
	if err != nil {
		return
	}
	if _, err := ParseHello(payload); err != nil {
		return
	}
	ack := appendHelloAck(nil, helloAck{sessionID: 1, numDets: 16, numMechs: 16, poolSize: 1})
	if err := conn.Write(ack); err != nil {
		return
	}
	for {
		if _, err := conn.Read(); err != nil {
			return
		}
		s.accepted <- struct{}{}
	}
}

func (s *stallServer) kill() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// TestOpenLoopWaitErrorPropagates is the regression test for the
// load-generator bug fixed in this PR: open-loop mode submitted batches
// and waited for responses in fire-and-forget goroutines that discarded
// Pending.Wait errors, so a server dying after accepting the batches
// produced a clean exit with silently missing responses (-max-shed 0
// passed spuriously). DriveLoad must report the loss: a non-nil error
// naming every lost batch, FailedBatches > 0, and Decoded+Shed strictly
// below the submitted shot count.
func TestOpenLoopWaitErrorPropagates(t *testing.T) {
	srv := newStallServer(t)

	const sessions, shots, batch = 2, 64, 16
	done := make(chan struct{})
	var res LoadResult
	var err error
	go func() {
		defer close(done)
		res, err = DriveLoad(srv.ln.Addr().String(), LoadConfig{
			Code: "bb72", Rounds: 2, P: 3e-3,
			Spec:     Spec{Kind: "bp", BPIters: 10},
			Sessions: sessions, Shots: shots, BatchSize: batch,
			ServerSample: true,
			Mode:         "open", Rate: 1e6, // effectively unpaced: all batches go out at once
			Seed: 1,
		})
	}()

	// wait until the server has swallowed every batch, then drop the
	// connections with all responses outstanding
	for got, want := 0, shots/batch; got < want; {
		select {
		case <-srv.accepted:
			got++
		case <-time.After(10 * time.Second):
			t.Fatalf("server accepted only %d/%d batches", got, want)
		}
	}
	srv.kill()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("DriveLoad did not return after the server died")
	}

	if err == nil {
		t.Fatal("DriveLoad returned nil error after losing every in-flight batch")
	}
	if !strings.Contains(err.Error(), "wait") {
		t.Errorf("error does not surface the Wait failure path: %v", err)
	}
	if res.FailedBatches == 0 {
		t.Error("FailedBatches = 0, want every lost batch accounted")
	}
	if res.Decoded+res.Shed >= shots {
		t.Errorf("decoded %d + shed %d covers all %d shots despite losing responses",
			res.Decoded, res.Shed, shots)
	}
}

// TestDriveLoadCollectsAllSessionErrors pins the other half of the fix:
// the old generator log.Fataled on the first session error, discarding
// every other session's failure. With no server listening at all, every
// session fails to dial and each failure must appear in the joined error.
func TestDriveLoadCollectsAllSessionErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here any more

	const sessions = 4
	_, err = DriveLoad(addr, LoadConfig{
		Code: "bb72", Rounds: 2, P: 3e-3,
		Spec:     Spec{Kind: "bp", BPIters: 10},
		Sessions: sessions, Shots: 64, BatchSize: 16,
		ServerSample: true,
		Seed:         1,
	})
	if err == nil {
		t.Fatal("DriveLoad returned nil error with no server")
	}
	for s := 0; s < sessions; s++ {
		want := "session " + string(rune('0'+s))
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error is missing %q: %v", want, err)
		}
	}
}

// TestDriveLoadClosedLoop drives a real in-process server on loopback:
// the accounting must cover every shot with zero failed batches.
func TestDriveLoadClosedLoop(t *testing.T) {
	srv := NewServer(Options{PoolSize: 1})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(5 * time.Second)

	const shots = 96
	res, err := DriveLoad(srv.Addr().String(), LoadConfig{
		Code: "bb72", Rounds: 2, P: 3e-3,
		Spec:     Spec{Kind: "bp", BPIters: 20},
		Sessions: 2, Shots: shots, BatchSize: 16,
		ServerSample: true,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded+res.Shed != shots {
		t.Errorf("decoded %d + shed %d != %d shots", res.Decoded, res.Shed, shots)
	}
	if res.FailedBatches != 0 {
		t.Errorf("FailedBatches = %d on a healthy run", res.FailedBatches)
	}
	if len(res.ServerLat) != res.Decoded {
		t.Errorf("%d server latencies for %d decoded responses", len(res.ServerLat), res.Decoded)
	}
	if res.Throughput() <= 0 {
		t.Errorf("throughput %v, want > 0", res.Throughput())
	}
}

// streamLoad is a small stream-plane load over rsurf3 (3 rounds, so 4
// layout rounds) against srv, sampling from srv's own DEM.
func streamLoad(t *testing.T, srv *Server) LoadConfig {
	t.Helper()
	d, err := srv.demFor("rsurf3", 3)
	if err != nil {
		t.Fatal(err)
	}
	return LoadConfig{
		Code: "rsurf3", Rounds: 3, P: 0.02, Spec: Spec{Kind: "uf"},
		Sessions: 2, Shots: 6, DEM: d, Seed: 5,
		Window: 2, Commit: 1,
	}
}

// TestDriveLoadStreams drives the stream plane closed and open loop
// against an in-process server: every stream finishes, every committed
// window carries exactly one server and one client latency, and session
// 0's first stream equals the library windowed decode of the same
// syndrome under the same seed (what bpsf-load -replay relies on).
func TestDriveLoadStreams(t *testing.T) {
	srv := startServer(t, Options{PoolSize: 1})
	base := streamLoad(t, srv)
	css, err := codes.Get(base.Code)
	if err != nil {
		t.Fatal(err)
	}
	layout := window.MemexpLayout(css, base.Rounds)
	spans, err := window.PartitionRounds(layout.NumRounds(), base.Window, base.Commit)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := window.New(base.DEM.H, base.DEM.Priors(base.P), layout, base.Window, base.Commit,
		decoding.Factory(base.Spec.NewDecoder))
	if err != nil {
		t.Fatal(err)
	}
	wd.Reseed(RequestSeed(base.Seed, 0))
	syn, _ := dem.NewSampler(base.DEM, base.P, SampleSeed(base.Seed)).SampleShared()
	if syn.IsZero() {
		t.Fatal("first syndrome is trivial; the replay check would be vacuous")
	}
	want := wd.Decode(syn).ErrHat

	for _, mode := range []string{"closed", "open"} {
		t.Run(mode, func(t *testing.T) {
			cfg := base
			cfg.Mode, cfg.Rate = mode, 2000 // round arrivals/s in open mode
			res, err := DriveLoad(srv.Addr().String(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Decoded != cfg.Shots || res.FailedBatches != 0 || res.Shed != 0 {
				t.Fatalf("decoded %d of %d streams, %d lost, %d shed",
					res.Decoded, cfg.Shots, res.FailedBatches, res.Shed)
			}
			if res.Windows != cfg.Shots*len(spans) {
				t.Errorf("%d windows committed, want %d streams × %d", res.Windows, cfg.Shots, len(spans))
			}
			if len(res.ServerLat) != res.Windows || len(res.ClientLat) != res.Windows {
				t.Errorf("%d server and %d client latencies for %d windows",
					len(res.ServerLat), len(res.ClientLat), res.Windows)
			}
			if !res.FirstStream.Equal(want) {
				t.Error("first stream's correction differs from the library windowed decode")
			}
		})
	}
}

// TestDriveLoadStreamsServerCommit: a zero Commit takes the server's
// default, and DriveLoad reports the commit the server resolved — what
// bpsf-load -commit 0 -replay hands the library windowed decoder.
func TestDriveLoadStreamsServerCommit(t *testing.T) {
	srv := startServer(t, Options{PoolSize: 1, StreamCommit: 2})
	cfg := streamLoad(t, srv)
	cfg.Window, cfg.Commit, cfg.Sessions, cfg.Shots = 3, 0, 1, 2
	res, err := DriveLoad(srv.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoded != cfg.Shots || res.FirstStream.Len() == 0 {
		t.Fatalf("decoded %d of %d streams, first stream %d bits", res.Decoded, cfg.Shots, res.FirstStream.Len())
	}
	if res.FirstCommit != 2 {
		t.Fatalf("FirstCommit = %d, want the server's default 2", res.FirstCommit)
	}
}

// TestDriveLoadStreamsDeadServer: a server that dies with every stream
// open returns an error naming each lost stream, and counts them.
func TestDriveLoadStreamsDeadServer(t *testing.T) {
	cfg := streamLoad(t, startServer(t, Options{PoolSize: 1}))
	dead := newStallServer(t)
	done := make(chan struct{})
	var res LoadResult
	var err error
	go func() {
		defer close(done)
		res, err = DriveLoad(dead.ln.Addr().String(), cfg)
	}()
	for got := 0; got < cfg.Sessions; got++ { // one stream open per session
		select {
		case <-dead.accepted:
		case <-time.After(10 * time.Second):
			t.Fatalf("server saw %d/%d stream opens", got, cfg.Sessions)
		}
	}
	dead.kill()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("DriveLoad did not return after the server died")
	}
	if err == nil {
		t.Fatal("DriveLoad returned nil error after the server died")
	}
	for s := 0; s < cfg.Sessions; s++ {
		if want := fmt.Sprintf("session %d stream 0", s); !strings.Contains(err.Error(), want) {
			t.Errorf("error is missing %q: %v", want, err)
		}
	}
	if res.FailedBatches != cfg.Sessions || res.Decoded != 0 || res.Windows != 0 {
		t.Errorf("lost %d streams, decoded %d, %d windows; want %d, 0, 0",
			res.FailedBatches, res.Decoded, res.Windows, cfg.Sessions)
	}
}

// TestLoadConfigValidation pins the config error paths bpsf-load relies
// on.
func TestLoadConfigValidation(t *testing.T) {
	base := LoadConfig{Code: "bb72", Rounds: 2, P: 3e-3,
		Spec: Spec{Kind: "bp", BPIters: 10}, Shots: 16, ServerSample: true}
	cases := []struct {
		name string
		mut  func(*LoadConfig)
		want string
	}{
		{"bad mode", func(c *LoadConfig) { c.Mode = "bursty" }, "closed|open"},
		{"open without rate", func(c *LoadConfig) { c.Mode = "open" }, "Rate"},
		{"client sampling without DEM", func(c *LoadConfig) { c.ServerSample = false }, "DEM"},
		{"stream plane without DEM", func(c *LoadConfig) { c.Window = 3 }, "DEM"},
		{"unknown code for default rounds", func(c *LoadConfig) { c.Code, c.Rounds = "nope", 0 }, "unknown code"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if _, err := cfg.withDefaults(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("withDefaults() error = %v, want mention of %q", err, tc.want)
			}
		})
	}
	if _, err := (LoadConfig{Code: "bb72", P: 3e-3, Spec: base.Spec, Shots: 16,
		ServerSample: true}).withDefaults(); err != nil {
		t.Errorf("catalog-default rounds rejected: %v", err)
	}
	var joined error
	if errors.Join(joined) != nil {
		t.Error("errors.Join(nil) != nil") // documents the clean-run contract of DriveLoad
	}
}
