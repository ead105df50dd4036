package sim

import (
	"time"

	"bpsf/internal/code"
	"bpsf/internal/decoding"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/noise"
)

// Factory builds a Decoder for a given parity-check matrix and per-bit
// priors (alias of decoding.Factory). The harness calls it once per shard
// and decoding side (code capacity) or once per shard (circuit level), so
// it may be invoked from concurrent goroutines and must not share mutable
// state between the decoders it returns.
type Factory = decoding.Factory

// Config controls one Monte-Carlo run.
type Config struct {
	// P is the physical error rate.
	P float64
	// Shots is the number of samples.
	Shots int
	// Seed seeds the noise sampler.
	Seed int64
	// MaxLogicalErrors stops early once this many failures are collected
	// (0 = run all shots). The paper collects ≥100 logical errors per
	// point. Propagated across shards through a shared atomic counter; see
	// the engine's determinism contract.
	MaxLogicalErrors int
	// KeepRecords retains per-shot records for latency analysis.
	KeepRecords bool
	// Workers is the number of goroutines decoding shards in parallel
	// (0 = runtime.NumCPU()). Results are bit-identical for any value.
	Workers int
	// Shards overrides the shard count (0 = automatic). Results depend on
	// the shard decomposition, so override it only to pin a decomposition
	// across runs with different Shots.
	Shards int
	// Batch switches RunCircuit to the bit-packed batch sampling path:
	// each shard draws 64-shot blocks from the word-parallel frame sampler
	// (internal/frame) instead of one shot at a time. The shot stream
	// differs from the scalar sampler's (the differential suite holds the
	// two to identical statistics) but keeps the engine's determinism
	// contract: per-shard splitmix seeding, and bit-identical results for
	// any Workers value. Ignored by RunCapacity.
	Batch bool
}

// Record is one shot's decoder telemetry (estimates dropped to save
// memory).
type Record struct {
	Failed          bool
	PostUsed        bool
	Iterations      int
	InitIterations  int
	Time, PostTime  time.Duration
	TrialIterations []int
	TrialSuccess    []bool
}

// Result summarizes a Monte-Carlo run.
type Result struct {
	Decoder   string
	P         float64
	Shots     int
	Failures  int
	LER       float64
	LERLow    float64 // 95% Wilson bounds
	LERHigh   float64
	Rounds    int     // 0 for code capacity
	LERRound  float64 // per-round rate (circuit level)
	PostUsed  int
	AvgIters  float64
	AvgTime   time.Duration
	Records   []Record
	iterSamps []int
}

func (r *Result) finalize(rounds int) {
	r.LER = float64(r.Failures) / float64(r.Shots)
	r.LERLow, r.LERHigh = WilsonInterval(r.Failures, r.Shots)
	r.Rounds = rounds
	if rounds > 0 {
		r.LERRound = LERPerRound(r.LER, rounds)
	}
}

func (r *Result) record(o Outcome, failed bool, keep bool) {
	if failed {
		r.Failures++
	}
	if o.PostUsed {
		r.PostUsed++
	}
	r.AvgIters += float64(o.Iterations)
	r.AvgTime += o.Time
	r.iterSamps = append(r.iterSamps, o.Iterations)
	if keep {
		// Outcome trial slices alias reusable decoder buffers; copy them
		// so Records survive the next decode on the same shard.
		var trialIters []int
		var trialSucc []bool
		if len(o.TrialIterations) > 0 {
			trialIters = append([]int(nil), o.TrialIterations...)
			trialSucc = append([]bool(nil), o.TrialSuccess...)
		}
		r.Records = append(r.Records, Record{
			Failed:          failed,
			PostUsed:        o.PostUsed,
			Iterations:      o.Iterations,
			InitIterations:  o.InitIterations,
			Time:            o.Time,
			PostTime:        o.PostTime,
			TrialIterations: trialIters,
			TrialSuccess:    trialSucc,
		})
	}
}

func (r *Result) finishAverages() {
	if r.Shots > 0 {
		r.AvgIters /= float64(r.Shots)
		r.AvgTime /= time.Duration(r.Shots)
	}
}

// IterationStats summarizes the serial-accounting iteration counts of the
// run.
func (r *Result) IterationStats() IntStats { return SummarizeInts(r.iterSamps) }

// RunCapacity evaluates a decoder family on css under the code-capacity
// depolarizing model. X and Z errors are decoded independently (HZ and HX
// sides); a shot fails if either side fails or leaves a logical residual.
// Shots run sharded across Config.Workers goroutines; results are
// bit-identical for any worker count.
func RunCapacity(css *code.CSS, mk Factory, cfg Config) (*Result, error) {
	q := noise.MarginalProb(cfg.P)
	sharder := func(shardSeed int64) (Shard, error) {
		decX, err := mk(css.HZ, noise.UniformPriors(css.N, q))
		if err != nil {
			return Shard{}, err
		}
		decZ, err := mk(css.HX, noise.UniformPriors(css.N, q))
		if err != nil {
			return Shard{}, err
		}
		Reseed(decX, ShardSeed(shardSeed, 1))
		Reseed(decZ, ShardSeed(shardSeed, 2))
		sampler := noise.NewCapacitySampler(css.N, cfg.P, shardSeed)
		ex := gf2.NewVec(css.N)
		ez := gf2.NewVec(css.N)
		sx := gf2.NewVec(css.HZ.Rows())
		sz := gf2.NewVec(css.HX.Rows())
		resid := gf2.NewVec(css.N)
		shot := func() (Outcome, bool) {
			sampler.SampleInto(ex, ez)
			css.SyndromeOfXInto(sx, ex)
			outX := decX.Decode(sx)
			failed := !outX.Success
			if !failed {
				resid.CopyFrom(ex)
				resid.Xor(outX.ErrHat)
				failed = css.IsLogicalX(resid)
			}
			css.SyndromeOfZInto(sz, ez)
			outZ := decZ.Decode(sz)
			if !failed {
				if !outZ.Success {
					failed = true
				} else {
					resid.CopyFrom(ez)
					resid.Xor(outZ.ErrHat)
					failed = css.IsLogicalZ(resid)
				}
			}
			// telemetry: record the X-side decode (one syndrome, matching the
			// paper's per-syndrome accounting) but fold in the Z-side failure
			return outX, failed
		}
		return Shard{Name: decX.Name(), Shot: shot}, nil
	}
	return Run(cfg, 0, sharder)
}

// RunCircuit evaluates a decoder on a detector error model: shots are
// sampled from the DEM at rate p, the decoder sees the detector syndrome,
// and a shot fails when the decoder's estimate predicts the wrong logical
// observable flips (or fails to satisfy the syndrome). rounds is used for
// the per-round rate. Shots run sharded across Config.Workers goroutines;
// results are bit-identical for any worker count. Config.Batch selects the
// word-parallel 64-shot sampling path (runCircuitBatch).
func RunCircuit(d *dem.DEM, rounds int, mk Factory, cfg Config) (*Result, error) {
	if cfg.Batch {
		return runCircuitBatch(d, rounds, mk, cfg)
	}
	sharder := func(shardSeed int64) (Shard, error) {
		sampler := dem.NewSampler(d, cfg.P, shardSeed)
		dec, err := mk(d.H, sampler.Priors())
		if err != nil {
			return Shard{}, err
		}
		Reseed(dec, ShardSeed(shardSeed, 1))
		obsHat := gf2.NewVec(d.NumObs)
		shot := func() (Outcome, bool) {
			syndrome, obsFlips := sampler.SampleShared()
			out := dec.Decode(syndrome)
			return out, LogicalFailed(d.Obs, out, obsFlips, obsHat)
		}
		return Shard{Name: dec.Name(), Shot: shot}, nil
	}
	return Run(cfg, rounds, sharder)
}
