// Sharded parallel Monte-Carlo engine.
//
// A run's Shots are split into a fixed number of shards; each shard owns an
// independent noise sampler and decoder whose seeds derive deterministically
// from (Config.Seed, shard index), so the shard decomposition — and therefore
// every sampled error and every Record — is a pure function of the Config and
// never of the worker count. Workers claim shards from a shared counter and
// stream per-shard aggregates back to the collector, which folds them in
// shard-index order. Early stopping (MaxLogicalErrors) propagates through a
// shared atomic failure counter checked once per shot.
//
// Determinism contract (see DESIGN.md §4): for MaxLogicalErrors == 0, two
// runs with equal (Seed, Shots) produce bit-identical Failures, LER
// and Record ordering for ANY Workers value. With MaxLogicalErrors > 0 the
// collected failure count is still guaranteed to reach the threshold when the
// workload contains enough failures, but the exact number of executed shots
// may vary with scheduling (each shard checks the shared counter at shot
// granularity).
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bpsf/internal/decoding"
)

// defaultMaxShards caps the automatic shard count; 64 shards keep the
// per-shard setup cost (decoder construction) amortized while exposing
// enough parallelism for any realistic core count.
const defaultMaxShards = 64

// minShardShots is the target minimum shots per automatic shard, so tiny
// runs do not pay one decoder build per shot.
const minShardShots = 4

// ShotFunc executes one Monte-Carlo shot and reports the decoder outcome
// and whether the shot failed logically.
type ShotFunc func() (Outcome, bool)

// Shard is the per-shard state built by a Sharder: a label for the decoder
// family and the shot function closing over the shard's private sampler and
// decoder.
type Shard struct {
	// Name labels the decoder family (becomes Result.Decoder).
	Name string
	// Shot runs one shot. It is only ever called from a single goroutine.
	Shot ShotFunc
}

// Sharder builds one shard's private state from its deterministic seed.
// It is called once per shard, possibly from concurrent goroutines, so it
// must not share mutable state across invocations.
type Sharder func(shardSeed int64) (Shard, error)

// Reseeder is implemented by decoders owning internal randomness (BP-SF
// trial sampling). The engine reseeds each shard's decoder deterministically
// so stochastic post-processing is also independent per shard. Alias of
// decoding.Reseeder.
type Reseeder = decoding.Reseeder

// Reseed reseeds dec if it carries internal randomness; a no-op otherwise.
func Reseed(dec Decoder, seed int64) { decoding.Reseed(dec, seed) }

// ShardSeed derives the deterministic seed of one shard from the run seed
// via a splitmix64 step (decoding.ShardSeed): statistically independent
// streams for adjacent shard indices, stable across platforms.
func ShardSeed(seed int64, shard int) int64 { return decoding.ShardSeed(seed, shard) }

// workers resolves Config.Workers (0 = all CPUs).
func (cfg Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.NumCPU()
}

// shards returns the shard count min(defaultMaxShards,
// ceil(Shots/minShardShots)). It depends only on Shots — never on Workers —
// which is what makes results worker-count invariant.
func (cfg Config) shards() int {
	n := (cfg.Shots + minShardShots - 1) / minShardShots
	if n > defaultMaxShards {
		n = defaultMaxShards
	}
	if n < 1 {
		n = 1
	}
	return n
}

// shardQuota returns the number of shots assigned to shard i of n: an even
// split with the remainder spread over the leading shards.
func shardQuota(shots, n, i int) int {
	q := shots / n
	if i < shots%n {
		q++
	}
	return q
}

// Run executes a sharded Monte-Carlo run: mk builds each shard's sampler
// and decoder, the engine distributes shards over Config.Workers goroutines
// and merges the per-shard aggregates in shard order. rounds is threaded to
// Result.finalize for the per-round logical error rate (0 for code
// capacity).
func Run(cfg Config, rounds int, mk Sharder) (*Result, error) {
	shardCount := cfg.shards()
	workerCount := cfg.workers()
	if workerCount > shardCount {
		workerCount = shardCount
	}

	type shardOut struct {
		res *Result
		err error
	}
	outs := make([]shardOut, shardCount)
	var nextShard atomic.Int64
	var failTotal atomic.Int64

	runShard := func(i int) shardOut {
		// once the failure budget is spent, skip the shard's decoder/sampler
		// construction entirely, not just its shot loop
		if cfg.MaxLogicalErrors > 0 && failTotal.Load() >= int64(cfg.MaxLogicalErrors) {
			return shardOut{res: &Result{}}
		}
		sh, err := mk(ShardSeed(cfg.Seed, i))
		if err != nil {
			return shardOut{err: err}
		}
		r := &Result{Decoder: sh.Name}
		quota := shardQuota(cfg.Shots, shardCount, i)
		for shot := 0; shot < quota; shot++ {
			if cfg.MaxLogicalErrors > 0 && failTotal.Load() >= int64(cfg.MaxLogicalErrors) {
				break
			}
			o, failed := sh.Shot()
			r.Shots++
			r.record(o, failed, cfg.KeepRecords)
			if failed {
				failTotal.Add(1)
			}
		}
		return shardOut{res: r}
	}

	if workerCount <= 1 {
		for i := 0; i < shardCount; i++ {
			outs[i] = runShard(i)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workerCount; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(nextShard.Add(1)) - 1
					if i >= shardCount {
						return
					}
					outs[i] = runShard(i)
				}
			}()
		}
		wg.Wait()
	}

	// Fold in shard-index order: aggregate sums and Record concatenation are
	// then independent of which worker ran which shard.
	total := &Result{P: cfg.P}
	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		r := out.res
		if total.Decoder == "" {
			total.Decoder = r.Decoder
		}
		total.Shots += r.Shots
		total.Failures += r.Failures
		total.PostUsed += r.PostUsed
		total.AvgIters += r.AvgIters
		total.AvgTime += r.AvgTime
		total.iterSamps = append(total.iterSamps, r.iterSamps...)
		total.Records = append(total.Records, r.Records...)
	}
	total.finishAverages()
	total.finalize(rounds)
	return total, nil
}
