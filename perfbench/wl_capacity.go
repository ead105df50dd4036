package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"bpsf/internal/bp"
	"bpsf/internal/bpsf"
	"bpsf/internal/code"
	"bpsf/internal/codes"
	"bpsf/internal/gf2"
	"bpsf/internal/noise"
	"bpsf/internal/sim"
	"bpsf/internal/sparse"
)

// capacity-mc: the researcher's LER-curve job, sim.RunCapacity at
// Workers = nproc on two code-capacity cells.
//
// The BP-SF cell is the paper's Fig. 17a configuration and is decode
// bound on a small Tanner graph. The UF cell decodes in about a
// microsecond, so the sim engine and per-shot sampling bound it.
type capCell struct {
	name  string
	code  string
	p     float64
	shots int // per second of --seconds
	// refLER is the cell's logical error rate measured once over 2·10⁶
	// (UF) and 4·10⁵ (BP-SF) shots; a run whose LER lies more than
	// lerSigmas binomial standard deviations away fails its check.
	refLER float64
	mk     sim.Factory
}

const lerSigmas = 6

var capCells = []capCell{
	{
		name: "BP-SF", code: "bb144", p: 0.06, shots: 6000, refLER: 0.0207,
		mk: func(h *sparse.Mat, priors []float64) (sim.Decoder, error) {
			return sim.NewBPSF(h, priors, bpsf.Config{
				Init:    bp.Config{MaxIter: 50},
				Trial:   bp.Config{MaxIter: 50},
				PhiSize: 7,
				WMax:    1,
				Policy:  bpsf.Exhaustive,
			})
		},
	},
	{
		name: "UF", code: "rsurf5", p: 0.05, shots: 80000, refLER: 0.0193,
		mk: func(h *sparse.Mat, _ []float64) (sim.Decoder, error) { return sim.NewUF(h), nil },
	},
}

// cellDecoder wraps a cell's decoder: it checks every successful
// estimate against its syndrome and, when timed, records each decode.
// RunCapacity builds one per shard and side, each used by one goroutine.
type cellDecoder struct {
	inner sim.Decoder
	chk   *checker
	edges int
	timed bool
	tr    *tracer
	lat   []time.Duration

	post, initIters, converged, trials, trialOK int
	convergedT                                  time.Duration
	convergedIters                              int
}

func (c *cellDecoder) Name() string { return c.inner.Name() }

// Reseed forwards the engine's per-shard seed, so wrapping changes no
// decode.
func (c *cellDecoder) Reseed(seed int64) { sim.Reseed(c.inner, seed) }

func (c *cellDecoder) Decode(s gf2.Vec) sim.Outcome {
	if !c.timed {
		out := c.inner.Decode(s)
		c.chk.decoded(s, out.Success, out.ErrHat, gf2.Vec{})
		return out
	}
	t0 := time.Now()
	out := c.inner.Decode(s)
	t1 := time.Now()
	c.tr.add(c.inner.Name(), -1, int64(len(c.lat)), t0, t1)
	dt := t1.Sub(t0)
	c.lat = append(c.lat, dt)
	c.chk.decoded(s, out.Success, out.ErrHat, gf2.Vec{})
	c.initIters += out.InitIterations
	if out.PostUsed {
		c.post++
		c.trials += len(out.TrialIterations)
		for _, ok := range out.TrialSuccess {
			if ok {
				c.trialOK++
			}
		}
	} else {
		c.converged++
		c.convergedT += dt
		c.convergedIters += out.InitIterations
	}
	return out
}

// cellRun is one cell's result and the decoders RunCapacity built.
type cellRun struct {
	res  *sim.Result
	wall time.Duration
	decs []*cellDecoder
}

func (r cellRun) lat() []time.Duration {
	var all []time.Duration
	for _, d := range r.decs {
		all = append(all, d.lat...)
	}
	return all
}

func runCell(e *env, c capCell, css *code.CSS, shots int, timed bool) (cellRun, error) {
	var mu sync.Mutex
	var run cellRun
	mk := func(h *sparse.Mat, priors []float64) (sim.Decoder, error) {
		inner, err := c.mk(h, priors)
		if err != nil {
			return nil, err
		}
		d := &cellDecoder{inner: inner, chk: newChecker(h, nil), edges: h.NNZ(), timed: timed, tr: e.trace}
		mu.Lock()
		run.decs = append(run.decs, d)
		mu.Unlock()
		return d, nil
	}
	runtime.GC()
	t0 := time.Now()
	res, err := sim.RunCapacity(css, mk, sim.Config{P: c.p, Shots: shots, Seed: e.seed, Workers: runtime.NumCPU()})
	run.wall = time.Since(t0)
	run.res = res
	return run, err
}

type capSetup struct{ css []*code.CSS }

// buildCapacity builds both codes and one decoder per cell and side —
// the construction every shard repeats inside RunCapacity.
func buildCapacity() (capSetup, error) {
	var s capSetup
	for _, c := range capCells {
		css, err := codes.Get(c.code)
		if err != nil {
			return s, err
		}
		q := noise.MarginalProb(c.p)
		for _, h := range []*sparse.Mat{css.HZ, css.HX} {
			if _, err := c.mk(h, noise.UniformPriors(css.N, q)); err != nil {
				return s, err
			}
		}
		s.css = append(s.css, css)
	}
	return s, nil
}

func runCapacity(e *env) (*report, error) {
	rep := newReport()
	nproc := runtime.NumCPU()
	rep.use["sim_workers"] = nproc
	s, setup, err := repeatSetup(15, buildCapacity, nil)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup.Seconds())
	e.printf("setup: %v median of 15\n", setup)

	secs := e.budget.Seconds()
	var runs []cellRun
	totalShots, totalWall := 0, time.Duration(0)
	for i, c := range capCells {
		shots := int(float64(c.shots) * secs)
		// the BP-SF cell is always timed: its per-decode latencies are
		// the end-to-end p50/tail
		run, err := runCell(e, c, s.css[i], shots, i == 0 || e.traced())
		if err != nil {
			return nil, fmt.Errorf("%s cell: %w", c.name, err)
		}
		runs = append(runs, run)
		totalShots += run.res.Shots
		totalWall += run.wall
		rep.measured += run.wall

		mism, decodes := 0, 0
		for _, d := range run.decs {
			mism += d.chk.mismatches
			decodes += d.chk.decodes
		}
		rep.attempted += decodes
		rep.failed += mism
		rep.check(mism == 0, "%s cell: %d of %d successful decodes do not satisfy their syndrome", c.name, mism, decodes)
		sigma := math.Sqrt(c.refLER * (1 - c.refLER) / float64(run.res.Shots))
		rep.check(math.Abs(run.res.LER-c.refLER) <= lerSigmas*sigma,
			"%s cell: LER %.5f is more than %d σ from the reference %.5f", c.name, run.res.LER, lerSigmas, c.refLER)
		e.printf("%-5s %s p=%g: %d shots in %v (%.0f shots/s), LER %.5f (%d failures; reference %.5f ± %.5f)\n",
			c.name, c.code, c.p, run.res.Shots, run.wall.Round(time.Millisecond), float64(run.res.Shots)/run.wall.Seconds(),
			run.res.LER, run.res.Failures, c.refLER, lerSigmas*sigma)
	}

	bpsfRun, ufRun := runs[0], runs[1]
	lat := bpsfRun.lat()
	p50, tail := percentile(lat, 0.5), tailPercentile(lat)
	rep.set("p50_ms", ms(p50.Value))
	rep.set("tail_ms", ms(tail.Value))
	rep.set("ops_per_s", float64(totalShots)/totalWall.Seconds())
	e.printf("BP-SF decode latency inside RunCapacity: p50 %.4f ms, %s %.4f ms; both cells %.0f shots/s\n",
		ms(p50.Value), tail, ms(tail.Value), rep.values["ops_per_s"])
	if e.traced() {
		capacityLayers(rep, s, bpsfRun, ufRun, nproc, e.seed)
	}
	return rep, nil
}

// capacityLayers fills the per-layer metrics of the traced run.
func capacityLayers(rep *report, s capSetup, bpsfRun, ufRun cellRun, nproc int, seed int64) {
	var n, post, initIters, converged, trials, trialOK, convIters, edges int
	var convT time.Duration
	for _, d := range bpsfRun.decs {
		n += len(d.lat)
		post += d.post
		initIters += d.initIters
		converged += d.converged
		trials += d.trials
		trialOK += d.trialOK
		convT += d.convergedT
		convIters += d.convergedIters
		edges = d.edges
	}
	rep.set("bp.iters_per_decode", ratio(float64(initIters), float64(n)))
	rep.set("bp.converged_ratio", ratio(float64(converged), float64(n)))
	rep.set("bp.ns_per_edge_update", ratio(float64(convT), float64(convIters)*float64(edges)))
	rep.set("bpsf.postproc_ratio", ratio(float64(post), float64(n)))
	rep.set("bpsf.trials_per_postproc", ratio(float64(trials), float64(post)))
	rep.set("bpsf.trial_success_ratio", ratio(float64(trialOK), float64(trials)))
	rep.set("sim.bpsf_shots_per_s", float64(bpsfRun.res.Shots)/bpsfRun.wall.Seconds())
	rep.set("sim.uf_shots_per_s", float64(ufRun.res.Shots)/ufRun.wall.Seconds())
	rep.set("sim.bpsf_ler", bpsfRun.res.LER)
	rep.set("sim.uf_ler", ufRun.res.LER)

	// Engine overhead on the UF cell: wall-clock worker time not spent
	// inside the wrapped Decode calls.
	ufLat := ufRun.lat()
	busy := sum(ufLat)
	workerTime := ufRun.wall * time.Duration(nproc)
	rep.set("sim.decode_busy_ratio", ratio(float64(busy), float64(workerTime)))
	rep.set("sim.overhead_us_per_shot", us(workerTime-busy)/float64(ufRun.res.Shots))
	rep.set("uf.us_per_decode", us(busy)/float64(len(ufLat)))

	// allocations per UF decode, on syndromes of the same cell
	css := s.css[1]
	dec := sim.NewUF(css.HZ)
	rng := rand.New(rand.NewSource(seed))
	q := noise.MarginalProb(capCells[1].p)
	syns := make([]gf2.Vec, 1000)
	for i := range syns {
		e := gf2.NewVec(css.N)
		for j := 0; j < css.N; j++ {
			if rng.Float64() < q {
				e.Set(j, true)
			}
		}
		syns[i] = css.SyndromeOfX(e)
	}
	rep.set("uf.allocs_per_decode", allocsPer(len(syns), func() {
		for _, syn := range syns {
			dec.Decode(syn)
		}
	}))
}
