package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/frame"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/obs"
	"bpsf/internal/service"
	"bpsf/internal/sim"
)

// edge-serve: an in-process decode server on loopback, rsurf5 with 5
// rounds at p = 1e-3, union-find, server-sampled syndromes, 2 sessions
// sending batches of 16. UF decodes in about 20 µs, so the wire, the
// admit/queue/coalesce/write stages and server-side frame sampling are a
// large share of each request. An open-loop phase at a fixed rate gives
// the per-layer numbers; a closed loop with one request outstanding per
// session gives the end-to-end ones, which stay steady where open-loop
// latencies on a 2-core host follow the host's own noise.
const (
	serveCode     = "rsurf5"
	serveRounds   = 5
	serveP        = 1e-3
	serveBatch    = 16
	serveSessions = 2
	servePool     = 2
	// serveRate is the open-loop operating point in syndromes/s, about
	// 0.12× the capacity measured on a 2-core host (≈ 200 000/s). It is a
	// constant, never recomputed per run, so runs on different commits
	// are offered the same load.
	serveRate = 24000.0
	// openWindow is the request count of one open-loop statistics window:
	// the highest percentile of a 200-request window with ten samples
	// beyond it is its p95.
	openWindow = 200
	// closedWindow is the same for the closed loop, where a window's p99
	// has ten samples beyond it.
	closedWindow = 1000
	// verifyEvery: every verifyEvery-th request of the open-loop phase
	// is compared with a direct library decode (kept small: the copies
	// are garbage the collector would otherwise sweep mid-phase).
	verifyEvery = 64
	// allocProbeUF is how many verified syndromes are decoded again to
	// count the allocations of a circuit-level UF decode.
	allocProbeUF = 1000
	// warmRequests per session, closed loop, before anything is timed.
	warmRequests = 200
)

type serveSetup struct {
	srv        *service.Server
	clients    []*service.Client
	d          *dem.DEM
	firstHello time.Duration
	memexpT    time.Duration
	extract    time.Duration
}

func (s *serveSetup) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.srv.Drain(5 * time.Second)
}

func serveHello(seed int64, session int) service.Hello {
	return service.Hello{
		Code: serveCode, Rounds: serveRounds, P: serveP,
		StreamSeed: seed + int64(session),
		Spec:       service.Spec{Kind: "uf"},
	}
}

// buildServe is the workload's set-up: the client-side model (for
// verification), the server, and the sessions; the first Hello makes the
// server build its DEM and decoder pool.
func buildServe(seed int64) (*serveSetup, error) {
	s := &serveSetup{}
	css, err := codes.Get(serveCode)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	circ, err := memexp.Build(css, serveRounds, memexp.Uniform())
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if s.d, err = dem.Extract(circ); err != nil {
		return nil, err
	}
	s.memexpT, s.extract = t1.Sub(t0), time.Since(t1)
	s.srv = service.NewServer(service.Options{PoolSize: servePool})
	if err := s.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < serveSessions; i++ {
		t := time.Now()
		c, err := service.Dial(s.srv.Addr().String(), serveHello(seed, i))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
		if i == 0 {
			s.firstHello = time.Since(t)
		}
		s.clients = append(s.clients, c)
		if c.NumDets() != s.d.NumDets || c.NumMechs() != s.d.NumMechs() {
			s.close()
			return nil, fmt.Errorf("server geometry %d×%d differs from the local DEM %d×%d",
				c.NumDets(), c.NumMechs(), s.d.NumDets, s.d.NumMechs())
		}
	}
	return s, nil
}

// sampled is one verified response: the session-wide shot index it
// decoded and what the server said.
type sampled struct {
	shot            int
	success, failed bool
	errHat          []byte
}

// serveSession is one session's open-loop traffic.
type serveSession struct {
	c      *service.Client
	index  int
	shots  int // shots the session has requested so far
	verify []sampled
}

// servePhase runs one open-loop phase at rate syndromes/s, spread over
// the sessions in turn, and returns each session's requests.
func servePhase(e *env, sessions []*serveSession, rate float64, dur time.Duration, verify bool) [][]request {
	interval := time.Duration(float64(time.Second) * serveBatch / rate)
	base := make([]int, len(sessions))
	for i, ss := range sessions {
		base[i] = ss.shots
	}
	out := openLoop(time.Now().Add(10*time.Millisecond), int(dur/interval), len(sessions), interval,
		func(int, int) int { return serveBatch },
		func(si, k int) (waitFunc, error) {
			ss := sessions[si]
			p, err := ss.c.SubmitSample(serveBatch)
			if err != nil {
				return nil, err
			}
			return func() outcome {
				resps, err := p.Wait()
				o := outcome{Done: time.Now()}
				if err != nil {
					o.Failed = serveBatch
					return o
				}
				for j, r := range resps {
					if r.Shed {
						o.Shed++
						continue
					}
					o.Decoded++
					o.Server = max(o.Server, r.Latency)
					if verify && k%verifyEvery == 0 {
						ss.verify = append(ss.verify, sampled{
							shot: base[si] + k*serveBatch + j, success: r.Success, failed: r.Failed,
							errHat: append([]byte(nil), r.ErrHat...),
						})
					}
				}
				ss.c.Release(p)
				return o
			}, nil
		})
	for i, ss := range sessions {
		ss.shots += len(out[i]) * serveBatch
	}
	if e.traced() {
		for si, reqs := range out {
			for k, r := range reqs {
				req := int64(si)<<32 | int64(k)
				root := e.trace.add("client.request", -1, req, r.Due, r.Done)
				e.trace.add("loadgen.late", root, req, r.Due, r.Sent)
				rtt := e.trace.add("service.rtt", root, req, r.Sent, r.Done)
				e.trace.add("service.server", rtt, req, r.Done.Add(-r.Server), r.Done)
			}
		}
	}
	return out
}

// serveClosed keeps one request outstanding on every session for dur:
// each session sends its next request as soon as the previous reply is
// in. It returns the round trips in completion order, the syndromes
// decoded and the phase's wall time.
func serveClosed(sessions []*serveSession, dur time.Duration) ([]time.Duration, int, time.Duration, error) {
	type done struct {
		at  time.Time
		rtt time.Duration
	}
	recs := make([][]done, len(sessions))
	errs := make([]error, len(sessions))
	decoded := make([]int, len(sessions))
	var wg sync.WaitGroup
	t0 := time.Now()
	end := t0.Add(dur)
	for i, ss := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				t := time.Now()
				p, err := ss.c.SubmitSample(serveBatch)
				if err != nil {
					errs[i] = err
					return
				}
				resps, err := p.Wait()
				now := time.Now()
				if err != nil {
					errs[i] = err
					return
				}
				for _, r := range resps {
					if !r.Shed {
						decoded[i]++
					}
				}
				ss.c.Release(p)
				ss.shots += serveBatch
				recs[i] = append(recs[i], done{now, now.Sub(t)})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	var all []done
	total := 0
	for i := range sessions {
		all = append(all, recs[i]...)
		total += decoded[i]
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	rtts := make([]time.Duration, len(all))
	for i, d := range all {
		rtts[i] = d.rtt
	}
	return rtts, total, wall, errors.Join(errs...)
}

func runServe(e *env) (*report, error) {
	rep := newReport()
	rep.use["sessions"] = serveSessions
	rep.use["pool_workers"] = servePool
	s, setup, err := repeatSetup(5, func() (*serveSetup, error) { return buildServe(e.seed) }, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.set("setup_s", setup.Seconds())
	rep.set("service.first_hello_s", s.firstHello.Seconds())
	rep.set("memexp.build_s", s.memexpT.Seconds())
	rep.set("dem.extract_s", s.extract.Seconds())
	e.printf("setup: %v median of 5 (first Hello %v); DEM %d detectors × %d mechanisms\n",
		setup, s.firstHello, s.d.NumDets, s.d.NumMechs())

	sessions := make([]*serveSession, len(s.clients))
	for i, c := range s.clients {
		sessions[i] = &serveSession{c: c, index: i}
	}
	for _, ss := range sessions {
		for k := 0; k < warmRequests; k++ {
			p, err := ss.c.SubmitSample(serveBatch)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if _, err := p.Wait(); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			ss.c.Release(p)
			ss.shots += serveBatch
		}
	}

	before, err := s.clients[0].Stats()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	base := servePhase(e, sessions, serveRate, e.budget/3, true)
	after, err := s.clients[0].Stats()
	if err != nil {
		return nil, err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	b := summarize(base)
	serveAccount(rep, "open loop", b)
	due := inDueOrder(base)
	p50, _ := windowedMedian(due, openWindow)
	tail, tails := windowedTail(due, openWindow)
	late := percentile(b.Late, 0.99)
	rep.set("loadgen.late_us_p99", us(late.Value))
	rep.set("loadgen.due_p50_us", us(p50.Value))
	rep.set("loadgen.due_tail_us", us(tail.Value))
	e.printf("open loop %.0f syndromes/s: %d requests × %d, %d GC cycles; from due time windowed p50 %.1f µs, windowed %s %.1f µs (windows: %s); generator late p99 %.1f µs\n",
		serveRate, b.Requests, serveBatch, ms1.NumGC-ms0.NumGC, us(p50.Value), tail, us(tail.Value), usList(tails), us(late.Value))
	serveLayers(rep, before, after, b)

	rtts, decoded, wall, err := serveClosed(sessions, e.budget*2/3)
	rep.attempted += decoded
	if err != nil {
		return nil, fmt.Errorf("closed loop: %w", err)
	}
	cp50, _ := windowedMedian(rtts, closedWindow)
	ctail, ctails := windowedTail(rtts, closedWindow)
	rep.set("p50_ms", ms(cp50.Value))
	rep.set("tail_ms", ms(ctail.Value))
	rep.set("ops_per_s", float64(decoded)/wall.Seconds())
	rep.measured = time.Since(t0)
	e.printf("closed loop, one request outstanding per session: %d requests, %.0f syndromes/s; round trip windowed p50 %.1f µs, windowed %s %.1f µs (windows: %s)\n",
		len(rtts), rep.values["ops_per_s"], us(cp50.Value), ctail, us(ctail.Value), usList(ctails))

	verifyServe(e, rep, s.d, sessions)
	return rep, nil
}

// usList renders durations as a compact list of microseconds.
func usList(ds []time.Duration) string {
	var b strings.Builder
	for i, d := range ds {
		if i > 0 {
			b.WriteByte(' ')
		}
		if d == missed {
			b.WriteString("miss")
			continue
		}
		fmt.Fprintf(&b, "%.0f", us(d))
	}
	return b.String()
}

// serveAccount checks that every syndrome sent was decoded, shed or
// failed, and charges shed and failed ones as failed operations.
func serveAccount(rep *report, label string, s loadSummary) {
	rep.attempted += s.Items
	rep.failed += s.Failed
	rep.check(s.Unaccounted == 0, "%s: %d syndromes neither decoded, shed nor failed", label, s.Unaccounted)
	rep.check(s.Items == s.Decoded+s.Shed+s.Failed, "%s: sent %d ≠ decoded %d + shed %d + failed %d",
		label, s.Items, s.Decoded, s.Shed, s.Failed)
}

// stageAvg is the mean of one stage over the requests between two
// snapshots.
func stageAvg(before, after obs.HistSnapshot) time.Duration {
	n := after.N - before.N
	if n <= 0 {
		return 0
	}
	return (after.Sum - before.Sum) / time.Duration(n)
}

func serveLayers(rep *report, before, after service.ServerSnapshot, b loadSummary) {
	names := map[obs.Stage]string{
		obs.StageAdmit: "service.admit_us_avg", obs.StageQueue: "service.queue_us_avg",
		obs.StageCoalesce: "service.coalesce_us_avg", obs.StageDecode: "service.decode_us_avg",
		obs.StageWrite: "service.write_us_avg",
	}
	for st, name := range names {
		rep.set(name, us(stageAvg(before.Stages.Stages[st], after.Stages.Stages[st])))
	}
	total := stageAvg(before.Stages.Total, after.Stages.Total)
	rep.set("service.wire_us_avg", us(mean(b.RTT)-total))
	if len(after.Pools) == 1 && len(before.Pools) == 1 {
		pb, pa := before.Pools[0], after.Pools[0]
		rep.set("service.batch_avg", ratio(float64(pa.Coalesced-pb.Coalesced), float64(pa.Batches-pb.Batches)))
	}
}

// verifyServe re-derives the verified requests' syndromes from the
// session's sampling seed and decodes them directly with the library; the
// server's responses must be byte-identical. It also times the sampler
// and the direct decodes for the per-layer metrics.
func verifyServe(e *env, rep *report, d *dem.DEM, sessions []*serveSession) {
	spec := service.Spec{Kind: "uf"}
	priors := d.Priors(serveP)
	var decT time.Duration
	checked, bad := 0, 0
	var probe []gf2.Vec // syndromes for the allocation count
	var dec sim.Decoder
	for _, ss := range sessions {
		h := serveHello(e.seed, ss.index)
		var err error
		dec, err = spec.NewDecoder(d.H, priors)
		if err != nil {
			rep.check(false, "verification decoder: %v", err)
			return
		}
		cur := frame.NewCursor(frame.NewDEMSampler(d, serveP, service.SampleSeed(h.StreamSeed)).SampleBlock)
		syn := gf2.NewVec(d.NumDets)
		want := gf2.NewVec(d.NumObs)
		obsHat := gf2.NewVec(d.NumObs)
		shot := 0
		for _, v := range ss.verify {
			var sb, ob []byte
			for ; shot <= v.shot; shot++ {
				sb, ob = cur.Next()
			}
			_ = syn.SetBytes(sb)
			_ = want.SetBytes(ob)
			sim.Reseed(dec, service.RequestSeed(h.StreamSeed, v.shot))
			t := time.Now()
			out := dec.Decode(syn)
			decT += time.Since(t)
			failed := sim.LogicalFailed(d.Obs, out, want, obsHat)
			checked++
			if len(probe) < allocProbeUF {
				probe = append(probe, syn.Clone())
			}
			if out.Success != v.success || failed != v.failed || !bytes.Equal(out.ErrHat.AppendBytes(nil), v.errHat) {
				bad++
			}
		}
	}
	rep.failed += bad
	rep.check(checked > 0, "no edge-serve response was verified")
	rep.check(bad == 0, "%d of %d verified responses differ from a direct library decode", bad, checked)
	e.printf("verified %d responses against direct library decodes: %d differ\n", checked, bad)
	rep.set("uf.us_per_decode", us(decT)/float64(max(checked, 1)))
	if len(probe) > 0 {
		rep.set("uf.allocs_per_decode", allocsPer(len(probe), func() {
			for _, syn := range probe {
				dec.Decode(syn)
			}
		}))
	}

	// the server-side sampler on the same DEM and p
	smp := frame.NewDEMSampler(d, serveP, e.seed)
	var blk frame.Batch
	blk.Reset(d.NumDets, d.NumObs)
	const blocks = 2000
	t := time.Now()
	for i := 0; i < blocks; i++ {
		smp.SampleBlock(&blk)
	}
	rep.set("frame.us_per_block", us(time.Since(t))/blocks)
}
