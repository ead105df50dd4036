package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"bpsf/internal/bp"
	"bpsf/internal/bposd"
	"bpsf/internal/bpsf"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/osd"
	"bpsf/internal/sim"
	"bpsf/internal/sparse"
)

// bb144-latency: the paper's headline comparison (Figs. 14–15). A
// corpus of circuit-level syndromes of the [[144,12,12]] code (memory
// experiment, 2 rounds, p = 3e-3) is sampled before timing and decoded
// one syndrome at a time in a closed loop.
const (
	latCode   = "bb144"
	latRounds = 2
	latP      = 3e-3
	// latCorpus is the corpus size. Decode times spread over three
	// decades, so quantiles of a small corpus move with the seed; at 900
	// the p50 and p95 (45 samples beyond it) vary by about a tenth from
	// seed to seed.
	latCorpus = 990
	// latSubset is how many corpus syndromes the traced run also decodes
	// with BP-OSD and serial BP-SF, each about three times slower than
	// the parallel decoder: enough for their p95 to have 10 samples
	// beyond it.
	latSubset = 200
	// allocProbe is how many corpus syndromes the traced run decodes a
	// second time under ReadMemStats to count allocations per decode.
	allocProbe = 20
)

// bpsfConfig is the paper's circuit-level BP-SF: BP100, |Φ| = 50,
// wmax = 10, ns = 10 sampled trials per weight.
func bpsfConfig(workers int) bpsf.Config {
	return bpsf.Config{
		Init:    bp.Config{MaxIter: 100},
		Trial:   bp.Config{MaxIter: 100},
		PhiSize: 50,
		WMax:    10,
		NS:      10,
		Policy:  bpsf.Sampled,
		Workers: workers,
	}
}

type latencySetup struct {
	d                *dem.DEM
	par, serial      *bpsf.Decoder
	bposd            *bposd.Decoder
	memexpT, extract time.Duration
}

// buildLatency is the workload's set-up: code, memory-experiment
// circuit, DEM, and the decoders. The untraced run times only the
// parallel BP-SF decoder, so it builds only that one.
func buildLatency(traced bool) (*latencySetup, error) {
	css, err := codes.Get(latCode)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	circ, err := memexp.Build(css, latRounds, memexp.Uniform())
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	d, err := dem.Extract(circ)
	if err != nil {
		return nil, err
	}
	s := &latencySetup{d: d, memexpT: t1.Sub(t0), extract: time.Since(t1)}
	priors := d.Priors(latP)
	if s.par, err = bpsf.New(d.H, priors, bpsfConfig(runtime.NumCPU())); err != nil {
		return nil, err
	}
	if traced {
		if s.serial, err = bpsf.New(d.H, priors, bpsfConfig(1)); err != nil {
			return nil, err
		}
		s.bposd = bposd.New(d.H, priors, bp.Config{MaxIter: 1000}, osd.Config{Method: osd.OSDCS, Order: 10})
	}
	return s, nil
}

// checker verifies that every decode reporting success satisfies its
// syndrome, and counts logical failures against the sampled observables.
type checker struct {
	h, obs      *sparse.Mat
	syn, obsHat gf2.Vec
	decodes     int
	mismatches  int
	logical     int
}

func newChecker(h, obs *sparse.Mat) *checker {
	c := &checker{h: h, obs: obs, syn: gf2.NewVec(h.Rows())}
	if obs != nil {
		c.obsHat = gf2.NewVec(obs.Rows())
	}
	return c
}

// decoded records one decode of syndrome s; want is the sampled
// observable flip vector (unused when the checker has no Obs matrix).
func (c *checker) decoded(s gf2.Vec, success bool, errHat gf2.Vec, want gf2.Vec) {
	c.decodes++
	if !success {
		c.logical++
		return
	}
	c.h.MulVecInto(c.syn, errHat)
	if !c.syn.Equal(s) {
		c.mismatches++
		return
	}
	if c.obs != nil {
		c.obs.MulVecInto(c.obsHat, errHat)
		if !c.obsHat.Equal(want) {
			c.logical++
		}
	}
}

func (c *checker) into(rep *report, label string, e *env) {
	rep.attempted += c.decodes
	rep.failed += c.mismatches
	rep.check(c.mismatches == 0, "%s: %d of %d successful decodes do not satisfy their syndrome", label, c.mismatches, c.decodes)
	e.printf("  %-22s %d decodes, %d logical failures, %d syndrome mismatches\n", label, c.decodes, c.logical, c.mismatches)
}

func runLatency(e *env) (*report, error) {
	rep := newReport()
	rep.use["trial_workers"] = runtime.NumCPU()
	s, setup, err := repeatSetup(3, func() (*latencySetup, error) { return buildLatency(e.traced()) }, nil)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup.Seconds())
	rep.set("memexp.build_s", s.memexpT.Seconds())
	rep.set("dem.extract_s", s.extract.Seconds())
	e.printf("setup: %v median of 3 (memexp %v, dem %v); DEM %d detectors × %d mechanisms, %d edges\n",
		setup, s.memexpT, s.extract, s.d.NumDets, s.d.NumMechs(), s.d.H.NNZ())

	syns, obs := sampleCorpus(s.d, latP, e.seed, latCorpus)
	warm, _ := sampleCorpus(s.d, latP, ^e.seed, 3)
	for _, w := range warm {
		s.par.Decode(w)
	}

	if !e.traced() {
		lat := make([]time.Duration, len(syns))
		chk := newChecker(s.d.H, s.d.Obs)
		runtime.GC()
		t0 := time.Now()
		for i, syn := range syns {
			s.par.Reseed(sim.ShardSeed(e.seed, i))
			t := time.Now()
			r := s.par.Decode(syn)
			lat[i] = time.Since(t)
			chk.decoded(syn, r.Success, r.ErrHat, obs[i])
		}
		rep.measured = time.Since(t0)
		chk.into(rep, "BP-SF parallel", e)
		p50, tail := percentile(lat, 0.5), tailPercentile(lat)
		rep.set("p50_ms", ms(p50.Value))
		rep.set("tail_ms", ms(tail.Value))
		rep.set("ops_per_s", float64(len(lat))/sum(lat).Seconds())
		e.printf("BP-SF(BP100,|Φ|=50,wmax=10,ns=10,P=%d): p50 %.3f ms, %s %.3f ms, mean %.3f ms\n",
			runtime.NumCPU(), ms(p50.Value), tail, ms(tail.Value), ms(mean(lat)))
		return rep, nil
	}
	return rep, tracedLatency(e, rep, s, syns, obs)
}

// corpusPool is how many syndromes per corpus slot are drawn before the
// corpus is picked from them.
const corpusPool = 20

// sampleCorpus draws a corpus of n syndromes and their observable flips,
// stratified by syndrome weight: it samples corpusPool·n shots, orders
// them by weight, keeps the one at the middle of each of n equal slices,
// and shuffles the result. Decode time grows with syndrome weight, so the
// corpus keeps the weight profile of a pool twenty times its size; on
// bb144 this halves the seed-to-seed spread of the mean decode time
// against a plain random draw. Every syndrome still comes from the seed.
func sampleCorpus(d *dem.DEM, p float64, seed int64, n int) (syns, obs []gf2.Vec) {
	type shot struct {
		syn, obs gf2.Vec
		w        int
	}
	smp := dem.NewSampler(d, p, seed)
	pool := make([]shot, corpusPool*n)
	for i := range pool {
		s, o := smp.SampleShared()
		pool[i] = shot{s.Clone(), o.Clone(), s.Weight()}
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].w < pool[j].w })
	picked := make([]shot, n)
	for i := range picked {
		picked[i] = pool[(2*i+1)*len(pool)/(2*n)]
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	for _, sh := range picked {
		syns = append(syns, sh.syn)
		obs = append(obs, sh.obs)
	}
	return syns, obs
}

// bpsfRun is one BP-SF decoder's traced pass over the corpus.
type bpsfRun struct {
	lat, post []time.Duration
	res       []bpsf.Result // Candidates/Trial* slices copied out
	errHat    []gf2.Vec
}

// tracedBPSF decodes the corpus with d, recording a bpsf.Decode span per
// syndrome whose children come from the stage times Decode returns: the
// initial BP at the start, the trials at the end. What lies between —
// candidate selection and trial generation — is bpsf's self time.
func tracedBPSF(e *env, d *bpsf.Decoder, name string, syns, obs []gf2.Vec, idx []int, chk *checker) bpsfRun {
	var run bpsfRun
	for _, i := range idx {
		syn := syns[i]
		d.Reseed(sim.ShardSeed(e.seed, i))
		t0 := time.Now()
		r := d.Decode(syn)
		t1 := time.Now()
		root := e.trace.add(name, -1, int64(i), t0, t1)
		e.trace.add("bp.Decode", root, int64(i), t0, t0.Add(r.InitTime))
		if r.UsedPostProcessing {
			e.trace.add("bpsf.trials", root, int64(i), t1.Add(-r.PostTime), t1)
		}
		run.lat = append(run.lat, t1.Sub(t0))
		chk.decoded(syn, r.Success, r.ErrHat, obs[i])
		run.errHat = append(run.errHat, r.ErrHat.Clone())
		r.TrialIterations = append([]int(nil), r.TrialIterations...)
		r.TrialSuccess = append([]bool(nil), r.TrialSuccess...)
		r.Candidates, r.ErrHat = nil, gf2.Vec{}
		if r.UsedPostProcessing {
			run.post = append(run.post, r.PostTime)
		}
		run.res = append(run.res, r)
	}
	return run
}

// tracedLatency is the traced run: the whole corpus through the parallel
// BP-SF decoder and an evenly spread subset through all three paper
// decoders, each call wrapped in spans, with BP-OSD's two stages called
// separately so their times are measured, not inferred.
func tracedLatency(e *env, rep *report, s *latencySetup, syns, obs []gf2.Vec) error {
	nproc := runtime.NumCPU()
	all := make([]int, len(syns))
	for i := range all {
		all[i] = i
	}
	sub := make([]int, min(latSubset, len(syns)))
	for j := range sub {
		sub[j] = j * len(syns) / len(sub)
	}
	t0 := time.Now()

	// BP1000-OSD-CS10, stage by stage.
	osdChk := newChecker(s.d.H, s.d.Obs)
	var osdLat, bpT, osdT []time.Duration
	bpIters := 0
	runtime.GC()
	for _, i := range sub {
		syn := syns[i]
		ta := time.Now()
		br := s.bposd.BP.Decode(syn)
		tb := time.Now()
		success, errHat := br.Success, br.ErrHat
		var tc time.Time
		if !br.Success {
			or := s.bposd.OSD.Decode(syn, br.Marginal)
			tc = time.Now()
			success = or.OK
			if or.OK {
				errHat = or.ErrHat
			}
		}
		td := time.Now()
		root := e.trace.add("bposd.Decode", -1, int64(i), ta, td)
		e.trace.add("bp.Decode", root, int64(i), ta, tb)
		bpT = append(bpT, tb.Sub(ta))
		bpIters += br.Iterations
		if !br.Success {
			e.trace.add("osd.Decode", root, int64(i), tb, tc)
			osdT = append(osdT, tc.Sub(tb))
		}
		osdLat = append(osdLat, td.Sub(ta))
		osdChk.decoded(syn, success, errHat, obs[i])
	}
	osdChk.into(rep, "BP1000-OSD-CS10", e)

	serChk := newChecker(s.d.H, s.d.Obs)
	runtime.GC()
	ser := tracedBPSF(e, s.serial, "bpsf.Decode", syns, obs, sub, serChk)
	serChk.into(rep, "BP-SF serial", e)
	parChk := newChecker(s.d.H, s.d.Obs)
	runtime.GC()
	par := tracedBPSF(e, s.par, "bpsf.Decode(par)", syns, obs, all, parChk)
	parChk.into(rep, "BP-SF parallel", e)
	rep.measured = time.Since(t0)
	// the parallel decoder's records on the subset, aligned with ser
	var parSub bpsfRun
	for _, i := range sub {
		parSub.lat = append(parSub.lat, par.lat[i])
		parSub.res = append(parSub.res, par.res[i])
		parSub.errHat = append(parSub.errHat, par.errHat[i])
		if par.res[i].UsedPostProcessing {
			parSub.post = append(parSub.post, par.res[i].PostTime)
		}
	}

	// The three decoders' latencies side by side on the subset (the
	// paper's comparison), and the parallel decoder on the whole corpus.
	for _, row := range []struct {
		name string
		lat  []time.Duration
	}{
		{"BP1000-OSD-CS10", osdLat}, {"BP-SF serial", ser.lat}, {fmt.Sprintf("BP-SF P=%d", nproc), parSub.lat},
		{fmt.Sprintf("BP-SF P=%d, corpus", nproc), par.lat},
	} {
		p50, tail := percentile(row.lat, 0.5), tailPercentile(row.lat)
		e.printf("  %-22s p50 %9.3f ms  %s %9.3f ms  mean %9.3f ms\n", row.name, ms(p50.Value), tail, ms(tail.Value), ms(mean(row.lat)))
	}
	rep.set("bposd.p50_ms", ms(percentile(osdLat, 0.5).Value))
	rep.set("bposd.p95_ms", ms(percentile(osdLat, 0.95).Value))
	rep.set("bpsf.serial_p50_ms", ms(percentile(ser.lat, 0.5).Value))
	rep.set("bpsf.serial_p95_ms", ms(percentile(ser.lat, 0.95).Value))
	rep.set("bposd.bp_ms_avg", ms(mean(bpT)))
	rep.set("osd.ms_avg", ms(mean(osdT)))
	rep.set("osd.invocation_ratio", ratio(float64(len(osdT)), float64(len(sub))))
	rep.set("bp.ns_per_edge_update", ratio(float64(sum(bpT)), float64(bpIters)*float64(s.d.H.NNZ())))

	// BP-SF stage attribution, from the serial decoder.
	var initT []time.Duration
	initIters, converged, trials, trialIters, trialOK := 0, 0, 0, 0, 0
	for _, r := range ser.res {
		initT = append(initT, r.InitTime)
		initIters += r.InitIterations
		if !r.UsedPostProcessing {
			converged++
		}
		trials += len(r.TrialIterations)
		for _, it := range r.TrialIterations {
			trialIters += it
		}
		for _, ok := range r.TrialSuccess {
			if ok {
				trialOK++
			}
		}
	}
	n := float64(len(sub))
	post := float64(len(ser.post))
	rep.set("bp.iters_per_decode", float64(initIters)/n)
	rep.set("bp.converged_ratio", float64(converged)/n)
	rep.set("bpsf.init_ms_avg", ms(mean(initT)))
	rep.set("bpsf.post_ms_avg", ms(mean(ser.post)))
	rep.set("bpsf.post_ms_p95", ms(percentile(ser.post, 0.95).Value))
	rep.set("bpsf.postproc_ratio", post/n)
	rep.set("bpsf.trials_per_postproc", ratio(float64(trials), post))
	rep.set("bpsf.trial_success_ratio", ratio(float64(trialOK), float64(trials)))
	rep.set("bpsf.par_speedup", ratio(float64(sum(ser.post)), float64(sum(parSub.post))))

	// The worker-schedule model (sim.ScheduleLatency) predicts the
	// parallel post-processing time from the serial trial record and the
	// measured per-iteration cost; its error is |measured ÷ modelled − 1|.
	iterUnit := ratio(float64(sum(ser.post)), float64(trialIters))
	var modelled, measured float64
	mismatch := 0
	for j, r := range ser.res {
		pr := parSub.res[j]
		if r.Success != pr.Success || !ser.errHat[j].Equal(parSub.errHat[j]) {
			mismatch++
		}
		if r.UsedPostProcessing && pr.UsedPostProcessing {
			modelled += float64(sim.ScheduleLatency(0, r.TrialIterations, r.TrialSuccess, nproc)) * iterUnit
			measured += float64(pr.PostTime)
		}
	}
	modelErr := ratio(measured, modelled) - 1
	rep.set("bpsf.sched_model_error", math.Abs(modelErr))
	rep.set("bpsf.par_mismatch", float64(mismatch))
	e.printf("  BP-SF post-processing on %d of %d subset syndromes: par speedup %.3f (serial ÷ P=%d post time), schedule model error %+.3f, %d parallel answers differ from serial\n",
		len(ser.post), len(sub), rep.values["bpsf.par_speedup"], nproc, modelErr, mismatch)

	checkSelfTimes(e, rep, osdLat, ser.lat, par.lat)
	allocProbes(rep, s, syns)
	return nil
}

// checkSelfTimes verifies the span arithmetic on the recorded trace: for
// each decoder, the self times of its spans must add up to its measured
// decode time, and its stage spans must cover all but the decoder's own
// work between stages.
func checkSelfTimes(e *env, rep *report, osdLat, serLat, parLat []time.Duration) {
	spans := e.trace.snapshot()
	self := selfTimes(spans)
	rootOf := func(i int) string {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return spans[i].Name
	}
	selfSum := map[string]time.Duration{}
	rootSelf := map[string]time.Duration{}
	for i, s := range spans {
		r := rootOf(i)
		selfSum[r] += time.Duration(self[i])
		if s.Parent < 0 {
			rootSelf[r] += time.Duration(self[i])
		}
	}
	for _, c := range []struct {
		root string
		lat  []time.Duration
	}{{"bposd.Decode", osdLat}, {"bpsf.Decode", serLat}, {"bpsf.Decode(par)", parLat}} {
		want := sum(c.lat)
		diff := selfSum[c.root] - want
		if diff < 0 {
			diff = -diff
		}
		// spans reuse the timestamps the latencies were computed from, so
		// only rounding may separate them
		rep.check(diff <= time.Duration(len(c.lat)), "%s: span self times sum to %v, measured decode time %v", c.root, selfSum[c.root], want)
		e.printf("  %-18s self times add up to %v of %v measured; own (unattributed) share %.2f%%\n",
			c.root, selfSum[c.root], want, 100*ratio(float64(rootSelf[c.root]), float64(want)))
	}
}

// allocProbes counts heap allocations per decode for each decoder layer
// on the first corpus syndromes, outside every timed pass.
func allocProbes(rep *report, s *latencySetup, syns []gf2.Vec) {
	probe := syns[:min(allocProbe, len(syns))]
	var bpFail []int
	bpAllocs := allocsPer(len(probe), func() {
		for i, syn := range probe {
			if !s.bposd.BP.Decode(syn).Success {
				bpFail = append(bpFail, i)
			}
		}
	})
	rep.set("bp.allocs_per_decode", bpAllocs)
	marg := make([][]float64, len(bpFail))
	for k, i := range bpFail {
		marg[k] = append([]float64(nil), s.bposd.BP.Decode(probe[i]).Marginal...)
	}
	if len(bpFail) > 0 {
		rep.set("osd.allocs_per_decode", allocsPer(len(bpFail), func() {
			for k, i := range bpFail {
				s.bposd.OSD.Decode(probe[i], marg[k])
			}
		}))
	}
	rep.set("bpsf.allocs_per_decode", allocsPer(len(probe), func() {
		for _, syn := range probe {
			s.serial.Decode(syn)
		}
	}))
}

// allocsPer runs f once and returns its heap allocations divided by n.
func allocsPer(n int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}
