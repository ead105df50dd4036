package bpsf

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bpsf/internal/bp"
	"bpsf/internal/gf2"
	"bpsf/internal/sparse"
	"bpsf/internal/tanner"
)

// Config parameterizes a BP-SF decoder. The paper's notation: a decoder
// labelled "BP-SF, BP100, wmax=10, |Φ|=50, ns=10" has InitMaxIter=100 (and
// trial BP of the same depth), WMax=10, PhiSize=50, NS=10.
type Config struct {
	// Init configures the initial BP attempt (oscillation tracking is
	// forced on).
	Init bp.Config
	// Trial configures the short-depth BP used for each trial syndrome.
	// Zero value inherits Init (without oscillation tracking).
	Trial bp.Config
	// PhiSize is |Φ|, the number of oscillating bits kept as candidates.
	PhiSize int
	// WMax is the maximum trial-vector weight.
	WMax int
	// NS is the number of sampled trial vectors per weight (Sampled policy).
	NS int
	// Policy selects exhaustive (code capacity) or sampled (circuit level)
	// trial generation.
	Policy TrialPolicy
	// Workers is the number of lanes P decoding one syndrome; 0 means 1,
	// negative is rejected. Lane l decodes trials l, l+P, l+2P, … in
	// order, and the winner is the success first in virtual time (see
	// Schedule), so the Result is a function of the syndrome, the seed
	// and P, whatever the timing. One lane is serial Algorithm 1 on the
	// calling goroutine. Before the trials, a flooding min-sum initial BP
	// is split into up to min(Workers, GOMAXPROCS) parts, fewer on a graph
	// too small to pay for them (bp.NewSplit); its Result does not depend
	// on the number of parts.
	Workers int
	// Seed seeds the trial-sampling RNG (Sampled policy).
	Seed int64
	// DecodeAllTrials decodes every trial to its end so that every
	// trial's iteration count and success are recorded; the first-success
	// ablation (experiments.AblationFirstSuccess) reads them. It changes
	// only TrialIterations and TrialSuccess: the winner, the estimate and
	// the iteration totals are those of the decode without it.
	// sim.LatencyStudy refuses such records, since the schedule model
	// needs serial ones.
	DecodeAllTrials bool
}

// Result reports a BP-SF decode.
//
// ErrHat, Candidates, TrialIterations and TrialSuccess alias reusable
// decoder buffers so that steady-state decoding performs zero per-shot
// allocations; they stay valid until the next Decode on the same Decoder.
// Clone/copy them if retained longer.
type Result struct {
	// Success is true when either the initial BP or a trial converged.
	Success bool
	// ErrHat is the estimated error (flip-back already applied); always
	// satisfies the original syndrome when Success.
	ErrHat gf2.Vec
	// InitIterations is the iteration count of the initial BP attempt.
	InitIterations int
	// UsedPostProcessing is true when the speculative stage ran.
	UsedPostProcessing bool
	// Candidates is the oscillation set Φ (nil when post-processing was not
	// needed).
	Candidates []int
	// Trials is the number of trial vectors generated.
	Trials int
	// TrialIterations[k] is the iteration count of trial k up to the
	// winner's virtual step: the iterations every lane runs whatever the
	// timing. It covers the trials whose first iteration precedes the
	// winner's success in virtual time (trials 0..WinningTrial with one
	// lane), or all of them when no trial succeeds. With DecodeAllTrials
	// it covers every trial in full.
	TrialIterations []int
	// TrialSuccess[k] reports whether trial k converged within its
	// TrialIterations[k]; only the winner does, unless DecodeAllTrials.
	TrialSuccess []bool
	// WinningTrial is the index of the trial whose estimate is ErrHat (an
	// index into Trial* and the generated trials), or -1.
	WinningTrial int
	// TotalIterations is the work: initial iterations plus the trial
	// iterations that precede the winner's step. With one lane that is
	// the paper's serial accounting (§V-C): the trials 0..WinningTrial, or
	// every trial when none succeeded.
	TotalIterations int
	// Steps is the latency in BP-iteration units at this decoder's lanes:
	// initial iterations plus the trial stage's virtual steps (Schedule).
	// With one lane it equals TotalIterations; with a lane per trial it is
	// the winning trial's own iterations, or the slowest trial's when all
	// fail.
	Steps int
	// InitTime and PostTime are the wall-clock stage durations.
	InitTime, PostTime time.Duration
}

// Decoder decodes syndromes of a fixed parity-check matrix with BP-SF. It
// is not safe for concurrent use (each goroutine needs its own Decoder).
// Both stages use Config.Workers goroutines, the calling one among them:
// a flooding min-sum initial BP runs in parts (bp.Split, whose helpers
// take a part of an iteration whenever they have a processor), and the
// trials are dealt out among the lanes, lane 0 on the calling goroutine
// and the others on goroutines spawned per decode.
type Decoder struct {
	h   *sparse.Mat
	cfg Config

	init  *bp.Split // the initial BP, in up to one part per lane and processor
	lanes []lane
	rng   *rand.Rand

	// per-decode scratch, reused so steady-state decoding is allocation-free
	phiSel     candidateSelector
	trialGen   trialGenerator
	trialIters []int  // Result.TrialIterations backing, trial-indexed
	trialSucc  []bool // Result.TrialSuccess backing, trial-indexed

	// trial-stage state shared by the lanes during one decode
	s      gf2.Vec
	trials [][]int
	best   atomic.Uint64 // least success so far, step<<32 | trial
	wg     sync.WaitGroup
}

// lane is one trial worker: a BP decoder, its trial-syndrome buffer and
// the estimate of its first success.
type lane struct {
	bp    *bp.Decoder
	sp    gf2.Vec
	bound bp.Bound // the lane's current trial against Decoder.best
	est   gf2.Vec  // the lane's first successful estimate, flipped back
	won   bool     // est holds an estimate from this decode
	// spawn runs the lane and signals wg; built once in New so that
	// starting a lane goroutine allocates nothing
	spawn func()
}

// New builds a BP-SF decoder for parity-check matrix h with per-bit error
// probabilities probs.
func New(h *sparse.Mat, probs []float64, cfg Config) (*Decoder, error) {
	if cfg.PhiSize <= 0 {
		return nil, fmt.Errorf("bpsf: PhiSize must be positive, got %d", cfg.PhiSize)
	}
	if cfg.WMax <= 0 {
		return nil, fmt.Errorf("bpsf: WMax must be positive, got %d", cfg.WMax)
	}
	if cfg.Policy == Sampled && cfg.NS <= 0 {
		return nil, fmt.Errorf("bpsf: NS must be positive for sampled trials")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("bpsf: Workers must not be negative, got %d", cfg.Workers)
	}
	g := tanner.New(h)
	initCfg := cfg.Init
	initCfg.TrackOscillation = true
	trialCfg := cfg.Trial
	if trialCfg.MaxIter == 0 {
		trialCfg = initCfg
	}
	trialCfg.TrackOscillation = false
	d := &Decoder{
		h:     h,
		cfg:   cfg,
		init:  bp.NewSplit(bp.New(g, probs, initCfg), min(cfg.Workers, runtime.GOMAXPROCS(0))),
		lanes: make([]lane, max(cfg.Workers, 1)),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range d.lanes {
		l := &d.lanes[i]
		if i == 0 {
			l.bp = bp.New(g, probs, trialCfg)
		} else {
			l.bp = d.lanes[0].bp.Clone()
		}
		l.sp = gf2.NewVec(g.M)
		l.est = gf2.NewVec(g.N)
		l.bound.Best = &d.best
		l.spawn = func() {
			defer d.wg.Done()
			d.runLane(i)
		}
	}
	return d, nil
}

// Config returns the decoder configuration.
func (d *Decoder) Config() Config { return d.cfg }

// Reseed re-seeds the trial-sampling RNG. The sharded Monte-Carlo engine
// calls it so each shard draws an independent trial stream, and the
// service path calls it per request — so it reseeds the existing source
// in place (Seed on a NewSource rand resets to the identical stream a
// fresh rand.New(rand.NewSource(seed)) would produce) instead of
// allocating a new ~5 KB generator every decode.
func (d *Decoder) Reseed(seed int64) {
	d.rng.Seed(seed)
}

// Decode runs Algorithm 1 on syndrome s.
func (d *Decoder) Decode(s gf2.Vec) Result {
	t0 := time.Now()
	initRes := d.init.Decode(s)
	res := Result{
		Success:         initRes.Success,
		ErrHat:          initRes.ErrHat,
		InitIterations:  initRes.Iterations,
		WinningTrial:    -1,
		TotalIterations: initRes.Iterations,
		Steps:           initRes.Iterations,
		InitTime:        time.Since(t0),
	}
	if initRes.Success {
		return res
	}
	res.UsedPostProcessing = true
	res.Candidates = d.phiSel.selectInto(initRes.FlipCount, initRes.Marginal, d.cfg.PhiSize)
	trials, err := d.trialGen.generate(res.Candidates, d.cfg.Policy, d.cfg.WMax, d.cfg.NS, d.rng)
	if err != nil {
		// unusable configuration for this code size; report failure with
		// the initial BP estimate
		return res
	}

	t1 := time.Now()
	res.Trials = len(trials)
	d.decodeTrials(s, trials)
	iters, succ := d.trialIters, d.trialSucc
	steps, winner := Schedule(iters, succ, len(d.lanes))
	work, started := cutToWinner(iters, succ, len(d.lanes), steps, winner, !d.cfg.DecodeAllTrials)
	if d.cfg.DecodeAllTrials {
		started = len(trials)
	}
	res.TrialIterations, res.TrialSuccess = iters[:started], succ[:started]
	res.WinningTrial = winner
	if winner >= 0 {
		res.Success = true
		res.ErrHat = d.lanes[winner%len(d.lanes)].est
	}
	res.TotalIterations += work
	res.Steps += steps
	res.PostTime = time.Since(t1)
	return res
}

// decodeTrials decodes the trial syndromes s ⊕ tHᵀ on every lane, leaving
// in the trial-indexed records each trial's iterations and success as its
// lane ran them (0 and false for a trial never started) and in each lane
// the estimate of its first success.
func (d *Decoder) decodeTrials(s gf2.Vec, trials [][]int) {
	d.s, d.trials = s, trials
	d.trialIters = slices.Grow(d.trialIters[:0], len(trials))[:len(trials)]
	d.trialSucc = slices.Grow(d.trialSucc[:0], len(trials))[:len(trials)]
	clear(d.trialIters)
	clear(d.trialSucc)
	d.best.Store(math.MaxUint64)
	d.wg.Add(len(d.lanes) - 1)
	for i := 1; i < len(d.lanes); i++ {
		go d.lanes[i].spawn()
	}
	d.runLane(0)
	d.wg.Wait()
}

// runLane decodes lane i's trials i, i+P, i+2P, … in order, each starting
// at the virtual step where the lane's previous trial ended. A success at
// step f offers (f, k) to d.best; the lane then stops, since its later
// trials start after f. Unless DecodeAllTrials, the lane drops a trial as
// soon as d.best beats its (step, k), and starts none whose first step is
// beaten: only iterations that cannot precede the winner are skipped.
func (d *Decoder) runLane(i int) {
	l := &d.lanes[i]
	l.won = false
	var bound *bp.Bound
	if !d.cfg.DecodeAllTrials {
		bound = &l.bound
	}
	base := 0
	for k := i; k < len(d.trials); k += len(d.lanes) {
		l.bound.Base, l.bound.Key = base, k
		if bound != nil && !bound.Allows(1) {
			return
		}
		t := d.trials[k]
		l.sp.CopyFrom(d.s)
		d.h.MulSupportInto(l.sp, t)
		tr := l.bp.DecodeStop(l.sp, bound)
		d.trialIters[k], d.trialSucc[k] = tr.Iterations, tr.Success
		base += tr.Iterations
		if !tr.Success || l.won {
			continue
		}
		l.won = true
		l.est.CopyFrom(tr.ErrHat)
		for _, col := range t {
			l.est.Flip(col)
		}
		if bound == nil {
			continue
		}
		offer(&d.best, uint64(base)<<32|uint64(k))
		return
	}
}

// offer lowers best to v unless it already holds a lower value.
func offer(best *atomic.Uint64, v uint64) {
	for old := best.Load(); v < old && !best.CompareAndSwap(old, v); old = best.Load() {
	}
}
