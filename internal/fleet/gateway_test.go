package fleet

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/obs"
	"bpsf/internal/service"
)

func testHello() service.Hello {
	return service.Hello{Code: "rsurf3", P: 0.003, StreamSeed: 42,
		Spec: service.Spec{Kind: "uf"}}
}

func startTestFleet(t *testing.T, n int, sopts service.Options) *Fleet {
	t.Helper()
	if sopts.PoolSize == 0 {
		sopts.PoolSize = 1
	}
	f, err := StartLocal(FleetOptions{
		Backends: n,
		Server:   sopts,
		Gateway:  GatewayOptions{ProbeInterval: -1, MaxSessionsPerBackend: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func startDirectServer(t *testing.T, sopts service.Options) string {
	t.Helper()
	if sopts.PoolSize == 0 {
		sopts.PoolSize = 1
	}
	srv := service.NewServer(sopts)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain(0) })
	return srv.Addr().String()
}

// sameResponses compares two response sequences for replay byte-identity:
// everything except Latency (a measurement, masked by the canonical-frame
// rule) must match.
func sameResponses(t *testing.T, got, want []service.Response, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d responses, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Success != w.Success || g.Shed != w.Shed || g.Failed != w.Failed ||
			g.Iterations != w.Iterations || g.FlipCount != w.FlipCount ||
			!bytes.Equal(g.ErrHat, w.ErrHat) {
			t.Fatalf("%s: response %d diverges:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// sampleBatches drives count SubmitSample batches on an open client and
// returns the concatenated responses.
func sampleBatches(t *testing.T, c *service.Client, count, per int) []service.Response {
	t.Helper()
	var out []service.Response
	for i := 0; i < count; i++ {
		p, err := c.SubmitSample(per)
		if err != nil {
			t.Fatalf("submit sample %d: %v", i, err)
		}
		resps, err := p.Wait()
		if err != nil {
			t.Fatalf("wait sample %d: %v", i, err)
		}
		out = append(out, resps...)
	}
	return out
}

// servingBackend finds the fleet member currently holding the (single)
// routed session.
func servingBackend(t *testing.T, f *Fleet) int {
	t.Helper()
	for i, bs := range f.Gateway().BackendStats() {
		if bs.Sessions > 0 {
			return i
		}
	}
	t.Fatal("no backend holds a session")
	return -1
}

// TestGatewaySessionMatchesDirect: an uninterrupted gateway session is
// response-identical to the same session against a standalone server —
// the proxy adds routing, not semantics.
func TestGatewaySessionMatchesDirect(t *testing.T) {
	f := startTestFleet(t, 2, service.Options{})
	gc, err := service.Dial(f.GatewayAddr(), testHello())
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer gc.Close()
	viaGateway := sampleBatches(t, gc, 3, 5)

	dc, err := service.Dial(startDirectServer(t, service.Options{}), testHello())
	if err != nil {
		t.Fatalf("dial direct: %v", err)
	}
	defer dc.Close()
	direct := sampleBatches(t, dc, 3, 5)

	sameResponses(t, viaGateway, direct, "gateway vs direct")
	if lost := f.Gateway().sessionsLost.Load(); lost != 0 {
		t.Fatalf("%d sessions lost on the happy path", lost)
	}
}

// TestGatewayFailoverByteIdentical is the zero-loss contract end to end:
// kill the serving backend mid-session and the session continues on
// another backend, with the complete response stream identical to an
// uninterrupted direct run — and the gateway's own canonical-frame hash
// check (which kills the session on any replay divergence) passing.
func TestGatewayFailoverByteIdentical(t *testing.T) {
	f := startTestFleet(t, 3, service.Options{})
	gc, err := service.Dial(f.GatewayAddr(), testHello())
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer gc.Close()

	got := sampleBatches(t, gc, 3, 4)
	victim := servingBackend(t, f)
	if err := f.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// the session must survive the kill transparently: these batches ride
	// the failed-over connection after a full journal replay
	got = append(got, sampleBatches(t, gc, 3, 4)...)

	dc, err := service.Dial(startDirectServer(t, service.Options{}), testHello())
	if err != nil {
		t.Fatalf("dial direct: %v", err)
	}
	defer dc.Close()
	want := sampleBatches(t, dc, 6, 4)

	sameResponses(t, got, want, "failed-over session vs uninterrupted direct")

	g := f.Gateway()
	if n := g.failoversTotal.Load(); n < 1 {
		t.Fatalf("failovers counter %d, want >= 1", n)
	}
	if n := g.sessionsLost.Load(); n != 0 {
		t.Fatalf("%d sessions lost", n)
	}
	if n := g.replaysOK.Load(); n < 1 {
		t.Fatalf("replaysOK counter %d, want >= 1", n)
	}
	// stats through the gateway still work after failover and carry the
	// fleet section, including the victim marked down
	snap, err := gc.Stats()
	if err != nil {
		t.Fatalf("stats after failover: %v", err)
	}
	if len(snap.Backends) != 3 {
		t.Fatalf("fleet snapshot carries %d backends, want 3", len(snap.Backends))
	}
	if snap.Backends[victim].Healthy {
		t.Fatalf("killed backend %d still marked healthy", victim)
	}
	var replayed uint64
	for _, bs := range snap.Backends {
		replayed += bs.Replayed
	}
	if replayed == 0 {
		t.Fatal("no backend reports replayed frames after a failover")
	}
}

// TestGatewayStreamFailoverByteIdentical runs the windowed-stream plane
// through a mid-stream kill: commits before and after the failover, and
// the final accumulated correction, all match an uninterrupted direct
// stream fed identical rounds.
func TestGatewayStreamFailoverByteIdentical(t *testing.T) {
	mkRounds := func(st *service.ClientStream) [][]gf2.Vec {
		rounds := make([][]gf2.Vec, st.NumRounds())
		for r := range rounds {
			v := gf2.NewVec(st.RoundDets(r))
			for j := 0; j < 3 && j < v.Len(); j++ {
				v.Set((r*7+j*3)%v.Len(), true)
			}
			rounds[r] = []gf2.Vec{v}
		}
		return rounds
	}
	run := func(addr string, kill func(afterRound int)) service.StreamResult {
		c, err := service.Dial(addr, testHello())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer c.Close()
		st, err := c.OpenStream(3, 1)
		if err != nil {
			t.Fatalf("open stream: %v", err)
		}
		rounds := mkRounds(st)
		half := len(rounds) / 2
		for r := 0; r < half; r++ {
			if err := st.SendRounds(rounds[r]); err != nil {
				t.Fatalf("send round %d: %v", r, err)
			}
		}
		if kill != nil {
			kill(half)
		}
		for r := half; r < len(rounds); r++ {
			if err := st.SendRounds(rounds[r]); err != nil {
				t.Fatalf("send round %d: %v", r, err)
			}
		}
		res, err := st.Finish()
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		return res
	}

	f := startTestFleet(t, 3, service.Options{})
	got := run(f.GatewayAddr(), func(int) {
		if err := f.Kill(servingBackend(t, f)); err != nil {
			t.Fatal(err)
		}
	})
	want := run(startDirectServer(t, service.Options{}), nil)

	if got.Success != want.Success {
		t.Fatalf("stream success %v, direct run says %v", got.Success, want.Success)
	}
	if !got.ErrHat.Equal(want.ErrHat) {
		t.Fatal("accumulated stream correction diverges from the uninterrupted run")
	}
	if len(got.Commits) != len(want.Commits) {
		t.Fatalf("%d commits, want %d", len(got.Commits), len(want.Commits))
	}
	for i := range got.Commits {
		g, w := got.Commits[i], want.Commits[i]
		if g.Window != w.Window || g.FirstRound != w.FirstRound || g.EndRound != w.EndRound ||
			g.WindowSuccess != w.WindowSuccess || g.Final != w.Final ||
			g.StreamSuccess != w.StreamSuccess || !bytes.Equal(g.Mechs, w.Mechs) {
			t.Fatalf("commit %d diverges:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if n := f.Gateway().sessionsLost.Load(); n != 0 {
		t.Fatalf("%d sessions lost", n)
	}
}

// TestGatewayStreamLoad runs the stream plane of service.DriveLoad
// through a gateway: the stream finishes with every window committed and
// the same correction a direct server commits for the same session.
func TestGatewayStreamLoad(t *testing.T) {
	css, err := codes.Get("rsurf3")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(css, 3, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	d, err := dem.Extract(circ)
	if err != nil {
		t.Fatal(err)
	}
	h := testHello()
	cfg := service.LoadConfig{
		Code: h.Code, Rounds: 3, P: 0.02, Spec: h.Spec,
		Shots: 1, DEM: d, Seed: h.StreamSeed,
		Window: 3, Commit: 1,
	}
	f := startTestFleet(t, 2, service.Options{})
	got, err := service.DriveLoad(f.GatewayAddr(), cfg)
	if err != nil {
		t.Fatalf("through the gateway: %v", err)
	}
	want, err := service.DriveLoad(startDirectServer(t, service.Options{}), cfg)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	if got.Decoded != 1 || got.Windows == 0 || got.Windows != want.Windows ||
		len(got.ServerLat) != got.Windows || len(got.ClientLat) != got.Windows {
		t.Fatalf("gateway run: %d streams, %d windows (%d server, %d client latencies); direct: %d windows",
			got.Decoded, got.Windows, len(got.ServerLat), len(got.ClientLat), want.Windows)
	}
	if !got.FirstStream.Equal(want.FirstStream) {
		t.Fatal("stream correction through the gateway differs from the direct server's")
	}
}

// TestRollingRestartZeroLoss: a rolling drain/restart under live load
// sheds nothing — every shot decodes, no batch fails, no session is
// lost.
func TestRollingRestartZeroLoss(t *testing.T) {
	f := startTestFleet(t, 3, service.Options{})
	cfg := service.LoadConfig{
		Code: "rsurf3", P: 0.003, Spec: service.Spec{Kind: "uf"},
		Sessions: 2, Shots: 3000, BatchSize: 8,
		ServerSample: true, Seed: 7,
	}
	loadDone := make(chan struct{})
	var res service.LoadResult
	var loadErr error
	go func() {
		defer close(loadDone)
		res, loadErr = service.DriveLoad(f.GatewayAddr(), cfg)
	}()
	time.Sleep(50 * time.Millisecond) // let the sessions route and start
	if err := f.RollingRestart(30 * time.Millisecond); err != nil {
		t.Fatalf("rolling restart: %v", err)
	}
	<-loadDone
	if loadErr != nil {
		t.Fatalf("load under rolling restart: %v", loadErr)
	}
	if res.FailedBatches != 0 || res.Shed != 0 {
		t.Fatalf("rolling restart shed work: %+v", res)
	}
	if res.Decoded != cfg.Shots {
		t.Fatalf("decoded %d of %d shots", res.Decoded, cfg.Shots)
	}
	if n := f.Gateway().sessionsLost.Load(); n != 0 {
		t.Fatalf("%d sessions lost", n)
	}
}

// TestGatewayStatsAggregation: a probed fleet snapshot merges pool rows
// under backend-prefixed names and carries every backend's row.
func TestGatewayStatsAggregation(t *testing.T) {
	f := startTestFleet(t, 2, service.Options{})
	gc, err := service.Dial(f.GatewayAddr(), testHello())
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer gc.Close()
	sampleBatches(t, gc, 2, 4)

	f.Gateway().ProbeOnce() // populate every backend's cached snapshot
	snap, err := gc.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(snap.Backends) != 2 {
		t.Fatalf("fleet snapshot carries %d backends, want 2", len(snap.Backends))
	}
	var total int64
	for _, bs := range snap.Backends {
		if !bs.Healthy {
			t.Fatalf("backend %s unhealthy in a live fleet", bs.Name)
		}
		total += bs.Sessions
	}
	if total != 1 {
		t.Fatalf("fleet reports %d routed sessions, want 1", total)
	}
	foundSession := false
	for _, ps := range snap.Pools {
		if !strings.Contains(ps.Pool, "|") {
			t.Fatalf("merged pool row %q lost its backend prefix", ps.Pool)
		}
		if strings.Contains(ps.Pool, "rsurf3/r3/p0.003") {
			foundSession = true
		}
	}
	if !foundSession {
		t.Fatalf("session pool missing from merged snapshot: %+v", snap.Pools)
	}
	// the same snapshot renders per-backend rows in the human dump
	var sb strings.Builder
	snap.WriteText(&sb)
	if !strings.Contains(sb.String(), "backend b0 ") || !strings.Contains(sb.String(), "backend b1 ") {
		t.Fatalf("WriteText dropped the backends section:\n%s", sb.String())
	}
}

// TestGatewayDrainReportsFinalCounts: the drain report is as fresh as the
// backends. With no background prober, Drain's final probe is the only
// one, and it must count every decode of the ended session.
func TestGatewayDrainReportsFinalCounts(t *testing.T) {
	f := startTestFleet(t, 1, service.Options{})
	gc, err := service.Dial(f.GatewayAddr(), testHello())
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	sampleBatches(t, gc, 16, 16)
	gc.Close()
	f.Gateway().Drain(5 * time.Second)

	decoded := func(snap service.ServerSnapshot, pool string) (uint64, bool) {
		for _, ps := range snap.Pools {
			if ps.Pool == pool {
				return ps.Decoded, true
			}
		}
		return 0, false
	}
	const pool = "rsurf3/r3/p0.003/UF"
	want, ok := decoded(f.members[0].Snapshot(), pool)
	if !ok || want != 256 {
		t.Fatalf("backend decoded %d (pool present: %v), want 256", want, ok)
	}
	if got, ok := decoded(f.Gateway().Snapshot(), "b0|"+pool); !ok || got != want {
		t.Fatalf("gateway drain report: decoded %d (pool row present: %v), backend decoded %d", got, ok, want)
	}
}

// muteBackend listens on loopback and holds every accepted connection
// open, unanswered, until the test ends: a backend that accepts the
// connection but never acknowledges the Hello.
func muteBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	return ln.Addr().String()
}

// drainWithin runs g.Drain(grace) and fails the test if it has not
// returned within limit.
func drainWithin(t *testing.T, g *Gateway, grace, limit time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		g.Drain(grace)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("Drain(%v) still blocked after %v", grace, limit)
	}
}

// TestGatewayDrainBoundsSilentBackend: Drain's final probe must not hang
// on a backend that accepts the connection but never acknowledges the
// Hello; the probe gives up after ProbeTimeout and marks it down.
func TestGatewayDrainBoundsSilentBackend(t *testing.T) {
	g, err := NewGateway(GatewayOptions{
		Backends:      []BackendAddr{{Name: "mute", Addr: muteBackend(t)}},
		ProbeInterval: -1,
		ProbeTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	drainWithin(t, g, time.Second, 10*time.Second)
	if bs := g.BackendStats(); len(bs) != 1 || bs[0].Healthy {
		t.Fatalf("silent backend after the final probe: %+v, want marked down", bs)
	}
}

// TestGatewaySkipsMuteBackend: the session's top-ranked backend accepts
// connections but never acknowledges the Hello, and a live server ranks
// second. The backend handshake is bounded by ProbeTimeout, so the
// session lands on the live server, the mute backend is marked down, and
// Drain returns.
func TestGatewaySkipsMuteBackend(t *testing.T) {
	h, err := service.ValidateHello(testHello())
	if err != nil {
		t.Fatal(err)
	}
	names := Rank([]string{"x", "y"}, service.SessionKey(h)) // mute first
	g, err := NewGateway(GatewayOptions{
		Backends: []BackendAddr{
			{Name: names[0], Addr: muteBackend(t)},
			{Name: names[1], Addr: startDirectServer(t, service.Options{})},
		},
		ProbeInterval: -1,
		ProbeTimeout:  200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := service.DialTimeout(g.Addr().String(), testHello(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial through the gateway with a live backend: %v", err)
	}
	defer c.Close()
	sampleBatches(t, c, 1, 4)
	bs := g.BackendStats()
	if bs[0].Healthy {
		t.Fatalf("mute backend %s still healthy: %+v", bs[0].Name, bs)
	}
	if bs[1].Sessions != 1 {
		t.Fatalf("session not on the live backend %s: %+v", bs[1].Name, bs)
	}
	drainWithin(t, g, 200*time.Millisecond, 10*time.Second)
}

// slowAckBackend fronts the server at addr with a proxy that holds each
// session's ack for delay before passing it on, as a backend building a
// cold pool would; the prober's Hello is acked at once, as a live
// backend's is while another pool builds. It returns the proxy's
// address.
func slowAckBackend(t *testing.T, addr string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	splice := func(from, to *service.Conn) {
		for {
			p, err := from.Read()
			if err != nil || to.Write(p) != nil {
				from.Close()
				to.Close()
				return
			}
		}
	}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				client := service.NewConn(nc, 0, 0)
				hello, err := client.Read()
				if err != nil {
					client.Close()
					return
				}
				server, ack, err := service.DialConn(addr, hello, 0, nil)
				if err != nil {
					client.Close()
					return
				}
				if h, err := service.ParseHello(hello); err == nil && h.P != probeHello().P {
					time.Sleep(delay)
				}
				if client.Write(ack) != nil {
					client.Close()
					server.Close()
					return
				}
				go splice(server, client)
				splice(client, server)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestGatewayWaitsForSlowBackend: a backend whose ack comes several
// ProbeTimeouts late but which answers probes meanwhile is live, not
// dead. A failover onto it and a new session on it both succeed, no
// session is lost, and it stays healthy.
func TestGatewayWaitsForSlowBackend(t *testing.T) {
	const probeTimeout = 100 * time.Millisecond
	h, err := service.ValidateHello(testHello())
	if err != nil {
		t.Fatal(err)
	}
	names := Rank([]string{"x", "y"}, service.SessionKey(h))
	first := service.NewServer(service.Options{PoolSize: 1})
	if err := first.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { first.Drain(0) })
	slow := slowAckBackend(t, startDirectServer(t, service.Options{}), 5*probeTimeout)
	g, err := NewGateway(GatewayOptions{
		Backends: []BackendAddr{
			{Name: names[0], Addr: first.Addr().String()},
			{Name: names[1], Addr: slow},
		},
		ProbeInterval: -1,
		ProbeTimeout:  probeTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Drain(0) })

	c, err := service.Dial(g.Addr().String(), testHello())
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer c.Close()
	sampleBatches(t, c, 2, 4)
	first.Drain(0) // kill the serving backend: the failover lands on the slow one
	sampleBatches(t, c, 2, 4)

	// the first backend is down now, so a new session goes to the slow one too
	c2, err := service.Dial(g.Addr().String(), testHello())
	if err != nil {
		t.Fatalf("dial gateway with only the slow backend left: %v", err)
	}
	defer c2.Close()
	sampleBatches(t, c2, 1, 4)

	if n := g.failoversTotal.Load(); n != 1 {
		t.Fatalf("failovers_total %d, want 1", n)
	}
	if n := g.sessionsLost.Load(); n != 0 {
		t.Fatalf("sessions_lost_total %d onto a slow but live backend, want 0", n)
	}
	if bs := g.BackendStats(); !bs[1].Healthy || bs[1].Sessions != 2 {
		t.Fatalf("slow backend %s: %+v, want healthy with both sessions", bs[1].Name, bs)
	}
}

// TestGatewayClientIdleTimeout: a client that goes quiet past
// IdleTimeout loses its session cleanly, with no failover and no lost
// session, and one that never sends its Hello is dropped. The client
// first sends stream rounds that complete no window, so the backend hop
// carries no reply for longer than the timeout while the client hop
// stays busy: a failover or a lost session here would mean the backend
// Conn carried an idle deadline too.
func TestGatewayClientIdleTimeout(t *testing.T) {
	const idle = 200 * time.Millisecond
	f, err := StartLocal(FleetOptions{
		Backends: 2,
		Server:   service.Options{PoolSize: 1},
		Gateway:  GatewayOptions{ProbeInterval: -1, IdleTimeout: idle},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	c, err := service.Dial(f.GatewayAddr(), testHello())
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer c.Close()
	st, err := c.OpenStream(3, 1)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	for r := 0; r < st.Window()-1; r++ { // the first commit needs Window rounds
		time.Sleep(idle * 2 / 5)
		if err := st.SendRounds([]gf2.Vec{gf2.NewVec(st.RoundDets(r))}); err != nil {
			t.Fatalf("send round %d: %v", r, err)
		}
	}
	// now stall: the session must end on the client hop's deadline
	if _, err := st.NextCommit(); err == nil {
		t.Fatal("a commit arrived for an incomplete window")
	}
	g := f.Gateway()
	for deadline := time.Now().Add(5 * time.Second); g.sessionsActive.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still active after the client idled out", g.sessionsActive.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := g.failoversTotal.Load(); n != 0 {
		t.Fatalf("failovers_total %d after a client idle timeout, want 0", n)
	}
	if n := g.sessionsLost.Load(); n != 0 {
		t.Fatalf("sessions_lost_total %d after a client idle timeout, want 0", n)
	}

	// the Hello read is under the same deadline: a client that connects
	// and sends nothing is dropped
	nc, err := net.Dial("tcp", f.GatewayAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := nc.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent client: read %d bytes, err %v; want the gateway to close the connection", n, err)
	}
}

// TestGatewayAdminMetrics: the admin plane exposes the per-backend
// Prometheus families with backend labels, one series per member, and
// the same pool and runtime families a single server exposes.
func TestGatewayAdminMetrics(t *testing.T) {
	f := startTestFleet(t, 2, service.Options{})
	gc, err := service.Dial(f.GatewayAddr(), testHello())
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	defer gc.Close()
	sampleBatches(t, gc, 1, 4)
	f.Gateway().ProbeOnce()

	addr, err := f.Gateway().ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatalf("admin: %v", err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`bpsf_backend_up{backend="b0"} 1`,
		`bpsf_backend_up{backend="b1"} 1`,
		`bpsf_backend_sessions{backend=`,
		`bpsf_backend_requests_total{backend=`,
		`bpsf_backend_decoded_total{backend=`,
		"# TYPE bpsf_backend_up gauge",
		"bpsf_gateway_sessions_total 1",
		"bpsf_gateway_sessions_lost_total 0",
		// the shared snapshot renderer: every pool and runtime family
		`bpsf_pool_shed_queue_total{pool="b`,
		`bpsf_pool_size{pool="b`,
		"\ngo_goroutines ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// one contiguous group and one TYPE header per family, even with two
	// backends' labelled series
	if err := obs.CheckExposition(text); err != nil {
		t.Fatalf("/metrics: %v\n%s", err, text)
	}
}

// TestGatewayHelloRejectionForwarded: a backend that rejects a Hello
// (decoder kind not allowed) answers the client directly; the gateway
// must not shop the rejection around or mark the backend down.
func TestGatewayHelloRejectionForwarded(t *testing.T) {
	f := startTestFleet(t, 2, service.Options{AllowedKinds: []string{"uf"}})
	h := testHello()
	h.Spec = service.Spec{Kind: "bp", BPIters: 10}
	_, err := service.Dial(f.GatewayAddr(), h)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("disallowed kind dialed through a gateway: err=%v", err)
	}
	for _, bs := range f.Gateway().BackendStats() {
		if !bs.Healthy {
			t.Fatalf("backend %s marked down by a hello rejection", bs.Name)
		}
	}
}

// TestGatewayAllBackendsDead: with nothing to route to, the session is
// refused with an error frame (not a hang or a bare close).
func TestGatewayAllBackendsDead(t *testing.T) {
	f := startTestFleet(t, 2, service.Options{})
	f.Kill(0)
	f.Kill(1)
	_, err := service.Dial(f.GatewayAddr(), testHello())
	if err == nil || !strings.Contains(err.Error(), "no eligible backend") {
		t.Fatalf("dial against a dead fleet: err=%v", err)
	}
}

// TestFleetRestartRejoins: a killed member restarted under the same name
// becomes routable again at its new address.
func TestFleetRestartRejoins(t *testing.T) {
	f := startTestFleet(t, 2, service.Options{})
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}
	f.Gateway().ProbeOnce()
	snap := f.Gateway().Snapshot()
	for _, bs := range snap.Backends {
		if !bs.Healthy {
			t.Fatalf("backend %s not healthy after restart", bs.Name)
		}
	}
}
