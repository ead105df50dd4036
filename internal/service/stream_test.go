package service

import (
	"bytes"
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/decoding"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/window"
)

// splitRounds slices a full multi-round syndrome into per-round vectors
// along the stream layout.
func splitRounds(s gf2.Vec, detsPerRound []int) []gf2.Vec {
	out := make([]gf2.Vec, len(detsPerRound))
	off := 0
	for r, nd := range detsPerRound {
		v := gf2.NewVec(nd)
		for i := 0; i < nd; i++ {
			if s.Get(off + i) {
				v.Set(i, true)
			}
		}
		out[r] = v
		off += nd
	}
	return out
}

// libraryWindowed builds the reference windowed decoder for a Hello +
// (W, C), reseeded the way the server seeds stream j.
func libraryWindowed(t *testing.T, s *Server, h Hello, w, c, streamIdx int) (*window.Decoder, *dem.DEM) {
	t.Helper()
	d, err := s.demFor(h.Code, h.Rounds)
	if err != nil {
		t.Fatal(err)
	}
	css, err := codes.Get(h.Code)
	if err != nil {
		t.Fatal(err)
	}
	wd, err := window.New(d.H, d.Priors(h.P), window.MemexpLayout(css, h.Rounds), w, c,
		decoding.Factory(h.Spec.NewDecoder))
	if err != nil {
		t.Fatal(err)
	}
	wd.Reseed(RequestSeed(h.StreamSeed, streamIdx))
	return wd, d
}

// runStream opens a stream on a fresh session and plays the rounds through
// it, returning the result.
func runStream(t *testing.T, addr string, h Hello, w, c int, rounds []gf2.Vec) StreamResult {
	t.Helper()
	cl, err := Dial(addr, h)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.OpenStream(w, c)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRounds() != len(rounds) {
		t.Fatalf("stream has %d rounds, caller split %d", st.NumRounds(), len(rounds))
	}
	for _, r := range rounds {
		if err := st.SendRounds([]gf2.Vec{r}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamMatchesLibraryWindowedDecode is the streaming acceptance
// criterion end to end: a service stream replay of a recorded round stream
// is byte-identical to the library windowed decode — per-commit mechanism
// bitmaps, accumulated estimate and verdict — including for the stochastic
// BP-SF inner, and a second replay of the same session reproduces it all.
func TestStreamMatchesLibraryWindowedDecode(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1})
	const w, c = 2, 1
	h := testHello(8181)
	wd, d := libraryWindowed(t, s, h, w, c, 0)

	// record a round stream: one sampled multi-round shot
	sampler := dem.NewSampler(d, h.P, 31)
	var syn gf2.Vec
	for {
		sh, _ := sampler.SampleShared()
		if !sh.IsZero() {
			syn = sh.Clone()
			break
		}
	}
	layout := wd.Layout()
	dets := make([]int, layout.NumRounds())
	for r := range dets {
		dets[r] = layout.RoundDets(r)
	}
	rounds := splitRounds(syn, dets)

	// library reference: stream the same rounds through the windowed decoder
	st := wd.NewStream()
	var wantCommits []window.Commit
	for _, r := range rounds {
		cms, err := st.PushRound(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, cm := range cms {
			cm.Mechs = append([]int(nil), cm.Mechs...)
			wantCommits = append(wantCommits, cm)
		}
	}
	want := st.Finish()
	wantHat := want.ErrHat.AppendBytes(nil)

	for replay := 0; replay < 2; replay++ {
		res := runStream(t, s.Addr().String(), h, w, c, rounds)
		if res.Success != want.Success {
			t.Fatalf("replay %d: stream success=%v, library=%v", replay, res.Success, want.Success)
		}
		if got := res.ErrHat.AppendBytes(nil); !bytes.Equal(got, wantHat) {
			t.Fatalf("replay %d: stream estimate diverges from library windowed decode", replay)
		}
		if len(res.Commits) != len(wantCommits) {
			t.Fatalf("replay %d: %d commits, library %d", replay, len(res.Commits), len(wantCommits))
		}
		for i, cm := range res.Commits {
			ref := wantCommits[i]
			if cm.Window != ref.Window || cm.FirstRound != ref.FirstRound || cm.EndRound != ref.EndRound ||
				cm.WindowSuccess != ref.Success {
				t.Fatalf("replay %d commit %d: got %+v, library %+v", replay, i, cm, ref)
			}
			mech := gf2.NewVec(d.NumMechs())
			for _, m := range ref.Mechs {
				mech.Set(m, true)
			}
			if !bytes.Equal(cm.Mechs, mech.AppendBytes(nil)) {
				t.Fatalf("replay %d commit %d: mechanism bitmap diverges", replay, i)
			}
		}
	}
}

// TestStreamCoexistsWithBatchPools runs a batch and a windowed stream on
// the SAME session: batch responses must still match direct decodes under
// the request-index contract, and the stream must match the library
// windowed decode — the two planes share a connection without interfering.
func TestStreamCoexistsWithBatchPools(t *testing.T) {
	s := startServer(t, Options{PoolSize: 2, MaxBatch: 4})
	const w, c = 2, 1
	h := testHello(555)
	syndromes := sampleSyndromes(t, s, h, 9, 3)
	wantBatch := directResponses(t, s, h, syndromes)
	wd, _ := libraryWindowed(t, s, h, w, c, 0)

	layout := wd.Layout()
	dets := make([]int, layout.NumRounds())
	for r := range dets {
		dets[r] = layout.RoundDets(r)
	}
	rounds := splitRounds(syndromes[0], dets)
	refStream := wd.NewStream()
	for _, r := range rounds {
		if _, err := refStream.PushRound(r); err != nil {
			t.Fatal(err)
		}
	}
	wantStream := refStream.Finish()
	wantHat := wantStream.ErrHat.AppendBytes(nil)

	cl, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stream, err := cl.OpenStream(w, c)
	if err != nil {
		t.Fatal(err)
	}
	// interleave: batch half, all stream rounds, batch rest
	pend1, err := cl.Submit(syndromes[:4])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rounds {
		if err := stream.SendRounds([]gf2.Vec{r}); err != nil {
			t.Fatal(err)
		}
	}
	pend2, err := cl.Submit(syndromes[4:])
	if err != nil {
		t.Fatal(err)
	}
	res, err := stream.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pend1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pend2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAgainstDirect(append(r1, r2...), wantBatch, "batch beside stream"); err != nil {
		t.Fatal(err)
	}
	if res.Success != wantStream.Success || !bytes.Equal(res.ErrHat.AppendBytes(nil), wantHat) {
		t.Fatal("stream beside batches diverges from library windowed decode")
	}
	if st := s.StreamingStats(); st.Opened != 1 || st.Windows == 0 {
		t.Fatalf("streaming stats not recorded: %+v", st)
	}
}

// TestStreamRoundOrderEnforced: rounds must arrive in order; a skipped
// round fails the session with a protocol error.
func TestStreamRoundOrderEnforced(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1})
	h := testHello(99)
	cl, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.OpenStream(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// hand-craft an out-of-order frame: firstRound 1 while server expects 0
	buf := appendStreamRoundsHeader(nil, 0, 1, 1)
	buf = gf2.NewVec(st.RoundDets(1)).AppendBytes(buf)
	if err := cl.conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := st.NextCommit(); err == nil {
		t.Fatal("out-of-order round accepted")
	}
}

// TestStreamOpenValidation: a bad window/commit pair is rejected at open.
func TestStreamOpenValidation(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1})
	h := testHello(7)
	cl, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.OpenStream(2, 3); err == nil {
		t.Fatal("commit > window accepted")
	}
}

// TestStreamOpenDefaults: zero window/commit resolve to the server's
// configured defaults, independently (a default commit clamps to an
// explicitly smaller window).
func TestStreamOpenDefaults(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1, StreamWindow: 4, StreamCommit: 2})
	h := testHello(11)
	cl, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.OpenStream(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Window() != 4 || st.CommitRounds() != 2 {
		t.Fatalf("defaults resolved to W%dC%d, want W4C2", st.Window(), st.CommitRounds())
	}
	st2, err := cl.OpenStream(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Window() != 1 || st2.CommitRounds() != 1 {
		t.Fatalf("explicit window 1 resolved to W%dC%d, want default commit clamped to W1C1",
			st2.Window(), st2.CommitRounds())
	}
}

// TestStreamWarmDecoderReuse: sequential streams on one pool key reuse the
// warm windowed decoder (the free list), not rebuild it.
func TestStreamWarmDecoderReuse(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1})
	h := testHello(21)
	wd, d := libraryWindowed(t, s, h, 2, 1, 0)
	layout := wd.Layout()
	dets := make([]int, layout.NumRounds())
	for r := range dets {
		dets[r] = layout.RoundDets(r)
	}
	rounds := splitRounds(gf2.NewVec(d.NumDets), dets)
	for i := 0; i < 3; i++ {
		res := runStream(t, s.Addr().String(), h, 2, 1, rounds)
		if !res.Success {
			t.Fatalf("stream %d: zero syndrome did not decode successfully", i)
		}
		if res.ErrHat.Weight() != 0 {
			t.Fatalf("stream %d: zero syndrome produced a nonzero correction", i)
		}
	}
	key := "bb72/r2/p0.02/" + h.Spec.String() + "/W2/C1"
	v, ok := s.windowPools.Load(key)
	if !ok {
		t.Fatalf("window pool %q not built", key)
	}
	e := v.(*windowPoolEntry)
	e.p.mu.Lock()
	free := len(e.p.free)
	e.p.mu.Unlock()
	if free != 1 {
		t.Fatalf("window pool holds %d free decoders after 3 sequential streams, want 1 (warm reuse)", free)
	}
}
