package bpsf

import (
	"fmt"
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
	// Workers is the number of lanes decoding one syndrome; 0 means 1,
	// negative is rejected. The lanes decode the trials concurrently:
	// they start trials in index order and the first success to complete
	// stops the rest, so one lane decodes trials strictly in order on the
	// calling goroutine. Before that, a flooding min-sum initial BP is
	// split into up to min(Workers, GOMAXPROCS) parts, fewer on a graph
	// too small to pay for them (bp.NewSplit); its Result does not depend
	// on the number of parts.
	Workers int
	// Seed seeds the trial-sampling RNG (Sampled policy).
	Seed int64
	// DecodeAllTrials keeps decoding after the first success so that every
	// trial's iteration count is recorded (needed by the latency schedule
	// model and the GPU estimator). Nothing is cancelled, so the lowest
	// successful trial wins and the Result is the same for every Workers.
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
	// TrialIterations[k] is the iteration count of trial k. It covers
	// every trial a lane started: trials 0..WinningTrial with one lane,
	// all of them with DecodeAllTrials. A trial cancelled by another
	// lane's success records the iterations it ran, possibly 0.
	TrialIterations []int
	// TrialSuccess[k] reports whether trial k converged. Used by the
	// worker-schedule latency model.
	TrialSuccess []bool
	// WinningTrial is the index of the trial whose estimate is ErrHat (an
	// index into Trial* and the generated trials), or -1.
	WinningTrial int
	// TotalIterations is the serial-accounting complexity: initial
	// iterations plus the recorded iterations of trials 0..WinningTrial,
	// or of every recorded trial when none succeeded (paper §V-C).
	TotalIterations int
	// FullParallelIterations is the latency in BP-iteration units assuming
	// one worker per trial: init iterations + the winning trial's
	// iterations (or the slowest recorded trial's when all fail).
	FullParallelIterations int
	// InitTime and PostTime are the wall-clock stage durations.
	InitTime, PostTime time.Duration
}

// Decoder decodes syndromes of a fixed parity-check matrix with BP-SF. It
// is not safe for concurrent use (each goroutine needs its own Decoder).
// Both stages use Config.Workers goroutines, the calling one among them:
// a flooding min-sum initial BP runs in parts (bp.Split, whose helpers
// take a part of an iteration whenever they have a processor), and the
// trials are shared out among the lanes, lane 0 on the calling goroutine
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
	trialIters []int   // Result.TrialIterations backing, trial-indexed
	trialSucc  []bool  // Result.TrialSuccess backing, trial-indexed
	errHat     gf2.Vec // the winning trial's estimate, flipped back

	// trial-stage state shared by the lanes during one decode
	s      gf2.Vec
	trials [][]int
	next   atomic.Int64 // next unclaimed trial index
	stop   atomic.Bool  // set by the first success unless DecodeAllTrials
	wg     sync.WaitGroup
	mu     sync.Mutex // guards winner and errHat
	winner int
}

// lane is one trial worker: a BP decoder and its trial-syndrome buffer.
type lane struct {
	bp *bp.Decoder
	sp gf2.Vec
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
		h:      h,
		cfg:    cfg,
		init:   bp.NewSplit(bp.New(g, probs, initCfg), min(cfg.Workers, runtime.GOMAXPROCS(0))),
		lanes:  make([]lane, max(cfg.Workers, 1)),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		errHat: gf2.NewVec(g.N),
	}
	for i := range d.lanes {
		l := &d.lanes[i]
		if i == 0 {
			l.bp = bp.New(g, probs, trialCfg)
		} else {
			l.bp = d.lanes[0].bp.Clone()
		}
		l.sp = gf2.NewVec(g.M)
		l.spawn = func() {
			defer d.wg.Done()
			d.runLane(l)
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
		Success:                initRes.Success,
		ErrHat:                 initRes.ErrHat,
		InitIterations:         initRes.Iterations,
		WinningTrial:           -1,
		TotalIterations:        initRes.Iterations,
		FullParallelIterations: initRes.Iterations,
		InitTime:               time.Since(t0),
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
	started := d.decodeTrials(s, trials)
	res.TrialIterations = d.trialIters[:started]
	res.TrialSuccess = d.trialSucc[:started]
	res.WinningTrial = d.winner
	counted := res.TrialIterations
	if d.winner >= 0 {
		res.Success = true
		res.ErrHat = d.errHat
		counted = counted[:d.winner+1]
		res.FullParallelIterations += counted[d.winner]
	} else if len(counted) > 0 {
		res.FullParallelIterations += slices.Max(counted)
	}
	for _, it := range counted {
		res.TotalIterations += it
	}
	res.PostTime = time.Since(t1)
	return res
}

// decodeTrials decodes the trial syndromes s ⊕ tHᵀ on every lane, filling
// the trial-indexed records and d.winner, and returns how many trials were
// started (the length of the records).
func (d *Decoder) decodeTrials(s gf2.Vec, trials [][]int) int {
	d.s, d.trials = s, trials
	d.trialIters = slices.Grow(d.trialIters[:0], len(trials))[:len(trials)]
	d.trialSucc = slices.Grow(d.trialSucc[:0], len(trials))[:len(trials)]
	d.next.Store(0)
	d.stop.Store(false)
	d.winner = -1
	d.wg.Add(len(d.lanes) - 1)
	for i := 1; i < len(d.lanes); i++ {
		go d.lanes[i].spawn()
	}
	d.runLane(&d.lanes[0])
	d.wg.Wait()
	return min(int(d.next.Load()), len(trials))
}

// runLane claims trial indices in order until they run out or a success
// stops the stage. A success offers its flipped-back estimate to the
// decoder; the lowest trial index among the offers wins, which with one
// lane or DecodeAllTrials is the lowest successful trial.
func (d *Decoder) runLane(l *lane) {
	for !d.stop.Load() {
		k := int(d.next.Add(1) - 1)
		if k >= len(d.trials) {
			return
		}
		t := d.trials[k]
		l.sp.CopyFrom(d.s)
		d.h.MulSupportInto(l.sp, t)
		tr := l.bp.DecodeStop(l.sp, &d.stop)
		d.trialIters[k], d.trialSucc[k] = tr.Iterations, tr.Success
		if !tr.Success {
			continue
		}
		d.mu.Lock()
		if d.winner < 0 || k < d.winner {
			d.winner = k
			d.errHat.CopyFrom(tr.ErrHat)
			for _, col := range t {
				d.errHat.Flip(col)
			}
		}
		d.mu.Unlock()
		if !d.cfg.DecodeAllTrials {
			d.stop.Store(true)
		}
	}
}
