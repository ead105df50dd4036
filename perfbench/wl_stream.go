package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"bpsf/internal/code"
	"bpsf/internal/codes"
	"bpsf/internal/decoding"
	"bpsf/internal/dem"
	"bpsf/internal/fleet"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/obs"
	"bpsf/internal/service"
	"bpsf/internal/window"
)

// stream-gateway: an in-process fleet gateway fronting two single-worker
// backends. Each of 2 sessions streams rsurf5 memory experiments (5
// rounds, p = 1e-3) round by round through windowed decoding (W3C1,
// union-find inner), one stream after another: first rounds pushed
// open-loop at a fixed cadence (the per-layer numbers), then one whole
// stream outstanding per session, closed loop (the end-to-end numbers).
// Both sessions carry the same decode
// configuration, so rendezvous routing sends both to one backend; the
// other stays idle but is probed for health.
const (
	streamCode      = "rsurf5"
	streamRounds    = 5
	streamP         = 1e-3
	streamW         = 3
	streamC         = 1
	streamSessions  = 2
	streamBackends  = 2
	streamRoundRate = 2000.0 // rounds/s per session, fixed
	warmStreams     = 20
	// closedStreams per session per second of --seconds: the closed-loop
	// phase.
	closedStreams = 1000
)

var streamSpec = service.Spec{Kind: "uf"}

type streamSetup struct {
	fl         *fleet.Fleet
	clients    []*service.Client
	css        *code.CSS
	d          *dem.DEM
	layout     window.Layout
	firstHello time.Duration
	memexpT    time.Duration
	extract    time.Duration
}

func (s *streamSetup) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.fl.Close()
}

func streamHello(seed int64, session int) service.Hello {
	return service.Hello{
		Code: streamCode, Rounds: streamRounds, P: streamP,
		StreamSeed: seed + int64(session),
		Spec:       streamSpec,
	}
}

func buildStream(seed int64) (*streamSetup, error) {
	s := &streamSetup{}
	var err error
	if s.css, err = codes.Get(streamCode); err != nil {
		return nil, err
	}
	t0 := time.Now()
	circ, err := memexp.Build(s.css, streamRounds, memexp.Uniform())
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if s.d, err = dem.Extract(circ); err != nil {
		return nil, err
	}
	s.memexpT, s.extract = t1.Sub(t0), time.Since(t1)
	s.layout = window.MemexpLayout(s.css, streamRounds)
	s.fl, err = fleet.StartLocal(fleet.FleetOptions{
		Backends: streamBackends,
		Server:   service.Options{PoolSize: 1, StreamWindow: streamW, StreamCommit: streamC},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < streamSessions; i++ {
		t := time.Now()
		c, err := service.Dial(s.fl.GatewayAddr(), streamHello(seed, i))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		if i == 0 {
			s.firstHello = time.Since(t)
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// streamRec is one stream as sent and as committed, kept for the replay
// check.
type streamRec struct {
	index   int // stream index within the session: its decode seed
	rounds  []gf2.Vec
	commits []service.StreamCommit
}

type streamSession struct {
	c      *service.Client
	index  int
	smp    *dem.Sampler
	opened int
	recs   []*streamRec
}

// newRec samples the next stream's rounds.
func (ss *streamSession) newRec(layout window.Layout) *streamRec {
	syn, _ := ss.smp.SampleShared()
	rec := &streamRec{}
	for r := 0; r < layout.NumRounds(); r++ {
		lo, hi := layout.RoundRange(r)
		v := gf2.NewVec(hi - lo)
		for i := lo; i < hi; i++ {
			if syn.Get(i) {
				v.Set(i-lo, true)
			}
		}
		rec.rounds = append(rec.rounds, v)
	}
	return rec
}

func (ss *streamSession) open() (*service.ClientStream, error) {
	st, err := ss.c.OpenStream(streamW, streamC)
	if err == nil {
		ss.opened++
	}
	return st, err
}

// closedStream opens a stream, sends all its rounds in one frame and
// waits for its verdict; it returns the windows committed and the time
// from open to verdict.
func (ss *streamSession) closedStream(rec *streamRec) (int, time.Duration, error) {
	t0 := time.Now()
	st, err := ss.open()
	if err != nil {
		return 0, 0, err
	}
	rec.index = ss.opened - 1
	if err := st.SendRounds(rec.rounds); err != nil {
		return 0, 0, err
	}
	res, err := st.Finish()
	if err != nil {
		return 0, 0, err
	}
	lat := time.Since(t0)
	rec.commits = copyCommits(res.Commits)
	ss.recs = append(ss.recs, rec)
	return len(res.Commits), lat, nil
}

func copyCommits(cs []service.StreamCommit) []service.StreamCommit {
	out := make([]service.StreamCommit, len(cs))
	for i, c := range cs {
		c.Mechs = append([]byte(nil), c.Mechs...)
		out[i] = c
	}
	return out
}

func runStream(e *env) (*report, error) {
	rep := newReport()
	rep.use["sessions"] = streamSessions
	rep.use["pool_workers"] = streamBackends
	s, setup, err := repeatSetup(5, func() (*streamSetup, error) { return buildStream(e.seed) }, (*streamSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.set("setup_s", setup.Seconds())
	rep.set("service.first_hello_s", s.firstHello.Seconds())
	rep.set("memexp.build_s", s.memexpT.Seconds())
	rep.set("dem.extract_s", s.extract.Seconds())
	e.printf("setup: %v median of 5 (first Hello %v through the gateway)\n", setup, s.firstHello)

	R := s.layout.NumRounds()
	spans, err := window.PartitionRounds(R, streamW, streamC)
	if err != nil {
		return nil, err
	}
	closes := make([][]int, R) // windows each round completes
	for w, sp := range spans {
		closes[sp.End-1] = append(closes[sp.End-1], w)
	}

	sessions := make([]*streamSession, len(s.clients))
	for i, c := range s.clients {
		sessions[i] = &streamSession{c: c, index: i, smp: dem.NewSampler(s.d, streamP, e.seed<<8+int64(i))}
		for k := 0; k < warmStreams; k++ {
			if _, _, err := sessions[i].closedStream(sessions[i].newRec(s.layout)); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}

	// Open loop: round k of a session is due at k / streamRoundRate.
	interval := time.Duration(float64(time.Second) / streamRoundRate)
	n := int(e.budget/3/interval) / R * R
	recs := make([][]*streamRec, len(sessions))
	for i, ss := range sessions {
		for j := 0; j < n/R; j++ {
			recs[i] = append(recs[i], ss.newRec(s.layout))
		}
	}
	before, err := s.clients[0].Stats()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	t0 := time.Now()
	// OpenStream waits for the gateway's ack, so one goroutine per session
	// opens each stream ahead of its first round; the generator never
	// blocks on an open.
	type opened struct {
		st    *service.ClientStream
		index int
		err   error
	}
	next := make([]chan opened, len(sessions))
	for i, ss := range sessions {
		next[i] = make(chan opened, 1)
		go func() {
			defer close(next[i])
			for range recs[i] {
				st, err := ss.open()
				next[i] <- opened{st, ss.opened - 1, err}
				if err != nil {
					return
				}
			}
		}()
	}
	cur := make([]*service.ClientStream, len(sessions)) // sender goroutine only
	out := openLoop(t0.Add(10*time.Millisecond), n*len(sessions), len(sessions), interval/time.Duration(len(sessions)),
		func(_, k int) int { return len(closes[k%R]) },
		func(si, k int) (waitFunc, error) {
			ss := sessions[si]
			rec, r := recs[si][k/R], k%R
			if r == 0 {
				o, ok := <-next[si]
				if !ok || o.err != nil {
					return nil, fmt.Errorf("opening stream %d: %v", k/R, o.err)
				}
				cur[si] = o.st
				rec.index = o.index
				ss.recs = append(ss.recs, rec)
			}
			st := cur[si]
			if err := st.SendRounds(rec.rounds[r : r+1]); err != nil {
				return nil, err
			}
			return func() outcome {
				var o outcome
				for range closes[r] {
					cm, err := st.NextCommit()
					if err != nil {
						o.Failed = len(closes[r]) - o.Decoded
						break
					}
					cm.Mechs = append([]byte(nil), cm.Mechs...)
					rec.commits = append(rec.commits, cm)
					o.Decoded++
					o.Server = max(o.Server, cm.Latency)
				}
				o.Done = time.Now()
				return o
			}, nil
		})
	for _, c := range next {
		for range c { // the opener has ended once its channel is drained
		}
	}
	after, err := s.clients[0].Stats()
	if err != nil {
		return nil, err
	}
	ol := summarize(out)
	rep.attempted += ol.Items
	rep.failed += ol.Failed + ol.Shed
	rep.check(ol.Unaccounted == 0, "open loop: %d window commits neither decoded, shed nor failed", ol.Unaccounted)
	due := inDueOrder(out)
	p50, _ := windowedMedian(due, openWindow)
	tail, tails := windowedTail(due, openWindow)
	late := percentile(ol.Late, 0.99)
	rep.set("loadgen.late_us_p99", us(late.Value))
	rep.set("loadgen.due_p50_us", us(p50.Value))
	rep.set("loadgen.due_tail_us", us(tail.Value))
	e.printf("open loop %d rounds/s × %d sessions: %d streams, %d commits; from due time windowed p50 %.1f µs, windowed %s %.1f µs (windows: %s); generator late p99 %.1f µs\n",
		int(streamRoundRate), len(sessions), n/R*len(sessions), ol.Decoded, us(p50.Value), tail, us(tail.Value), usList(tails), us(late.Value))
	if e.traced() {
		for si, reqs := range out {
			for k, r := range reqs {
				if r.Items == 0 {
					continue
				}
				req := int64(si)<<32 | int64(k)
				root := e.trace.add("stream.commit", -1, req, r.Due, r.Done)
				e.trace.add("loadgen.late", root, req, r.Due, r.Sent)
				rtt := e.trace.add("fleet.rtt", root, req, r.Sent, r.Done)
				e.trace.add("service.server", rtt, req, r.Done.Add(-r.Server), r.Done)
			}
		}
	}

	// Closed loop: each session keeps one whole stream outstanding.
	per := int(closedStreams * e.budget.Seconds())
	for _, ss := range sessions {
		for j := 0; j < per; j++ {
			recs[ss.index] = append(recs[ss.index], ss.newRec(s.layout))
		}
	}
	type done struct {
		at  time.Time
		lat time.Duration
	}
	runtime.GC()
	tc := time.Now()
	windows := make([]int, len(sessions))
	lats := make([][]done, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, ss := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rec := range recs[i][n/R:] {
				w, lat, err := ss.closedStream(rec)
				if err != nil {
					errs[i] = err
					return
				}
				windows[i] += w
				lats[i] = append(lats[i], done{time.Now(), lat})
			}
		}()
	}
	wg.Wait()
	closedWall := time.Since(tc)
	rep.measured = time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	var all []done
	total := 0
	for i := range sessions {
		all = append(all, lats[i]...)
		total += windows[i]
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	streamLat := make([]time.Duration, len(all))
	for i, d := range all {
		streamLat[i] = d.lat
	}
	rep.attempted += total
	cp50, _ := windowedMedian(streamLat, closedWindow)
	ctail, ctails := windowedTail(streamLat, closedWindow)
	rep.set("p50_ms", ms(cp50.Value))
	rep.set("tail_ms", ms(ctail.Value))
	rep.set("ops_per_s", float64(total)/closedWall.Seconds())
	e.printf("closed loop, one stream outstanding per session: %d streams, %d windows in %v → %.0f windows/s; stream latency windowed p50 %.1f µs, windowed %s %.1f µs (windows: %s)\n",
		len(streamLat), total, closedWall.Round(time.Millisecond), rep.values["ops_per_s"], us(cp50.Value), ctail, us(ctail.Value), usList(ctails))

	final, err := s.clients[0].Stats()
	if err != nil {
		return nil, err
	}
	streamLayers(rep, before, after, final, ol, sessions)
	verifyStreams(e, rep, s, sessions)
	return rep, nil
}

func streamLayers(rep *report, before, after, final service.ServerSnapshot, ol loadSummary, sessions []*streamSession) {
	rep.set("service.stream_decode_us_avg", us(stageAvg(before.StreamStages.Stages[obs.StageDecode], after.StreamStages.Stages[obs.StageDecode])))
	rep.set("service.stream_write_us_avg", us(stageAvg(before.StreamStages.Stages[obs.StageWrite], after.StreamStages.Stages[obs.StageWrite])))
	backend := stageAvg(before.StreamStages.Total, after.StreamStages.Total)
	rep.set("fleet.hop_us_avg", us(mean(ol.RTT)-backend))
	var requests, failovers uint64
	for _, b := range final.Backends {
		requests += b.Requests
		failovers += b.Failovers
	}
	opened := 0
	for _, ss := range sessions {
		opened += ss.opened
	}
	rep.set("fleet.journal_frames_per_stream", ratio(float64(requests), float64(opened)))
	rep.set("fleet.failovers", float64(failovers))
	rep.check(failovers == 0, "the gateway failed %d sessions over", failovers)
	rep.check(len(final.Backends) == streamBackends, "gateway snapshot lists %d backends, want %d", len(final.Backends), streamBackends)
}

// verifyStreams replays every stream through a library window.Stream
// under the session's deterministic stream seed; every commit the
// gateway delivered must be byte-identical to the library's.
func verifyStreams(e *env, rep *report, s *streamSetup, sessions []*streamSession) {
	priors := s.d.Priors(streamP)
	var pushT time.Duration
	pushes, checked, bad := 0, 0, 0
	for _, ss := range sessions {
		wd, err := window.New(s.d.H, priors, s.layout, streamW, streamC, decoding.Factory(streamSpec.NewDecoder))
		if err != nil {
			rep.check(false, "library windowed decoder: %v", err)
			return
		}
		seed := streamHello(e.seed, ss.index).StreamSeed
		mechs := gf2.NewVec(s.d.NumMechs())
		for _, rec := range ss.recs {
			wd.Reseed(service.RequestSeed(seed, rec.index))
			st := wd.NewStream()
			var lib []window.Commit
			for _, rv := range rec.rounds {
				t := time.Now()
				cs, err := st.PushRound(rv)
				pushT += time.Since(t)
				pushes++
				if err != nil {
					rep.check(false, "library replay: %v", err)
					return
				}
				lib = append(lib, cs...)
			}
			checked++
			if !sameCommits(lib, rec.commits, mechs) {
				bad++
			}
		}
	}
	rep.failed += bad
	rep.check(bad == 0, "%d of %d streams' commits differ from a library window.Stream replay", bad, checked)
	e.printf("replayed %d streams through the library: %d differ\n", checked, bad)
	rep.set("window.push_round_us_avg", us(pushT)/float64(max(pushes, 1)))
}

func sameCommits(lib []window.Commit, got []service.StreamCommit, mechs gf2.Vec) bool {
	if len(lib) != len(got) {
		return false
	}
	for i, c := range lib {
		g := got[i]
		if c.Window != g.Window || c.FirstRound != g.FirstRound || c.EndRound != g.EndRound || c.Success != g.WindowSuccess {
			return false
		}
		mechs.Zero()
		for _, m := range c.Mechs {
			mechs.Set(m, true)
		}
		if !bytes.Equal(mechs.AppendBytes(nil), g.Mechs) {
			return false
		}
	}
	return true
}
