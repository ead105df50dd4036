package sim

import (
	"fmt"

	"bpsf/internal/circuit"
	"bpsf/internal/dem"
	"bpsf/internal/frame"
	"bpsf/internal/gf2"
)

// RunCircuit evaluates a decoder on a detector error model: shots are
// sampled from the DEM at rate p (frame.DEMSampler, so shard shot i is
// shot i of dem.NewSampler with the shard's seed), the decoder sees the
// detector syndrome, and a shot fails when the decoder's estimate predicts
// the wrong logical observable flips (or fails to satisfy the syndrome).
// rounds is used for the per-round rate. Shots run sharded across
// Config.Workers goroutines; results are bit-identical for any worker
// count.
func RunCircuit(d *dem.DEM, rounds int, mk Factory, cfg Config) (*Result, error) {
	return runBlocks(d, rounds, mk, cfg, func(seed int64) func(*frame.Batch) {
		return frame.NewDEMSampler(d, cfg.P, seed).SampleBlock
	})
}

// RunCircuitFrames evaluates a decoder with shots sampled word-parallel
// from the CIRCUIT itself (frame.CircuitSampler): 64 Pauli frames at a
// time propagate through circ's gates, noise fires at its true circuit
// locations — including the exclusive depolarizing channels the DEM
// approximates as independent mechanisms — and the decoder sees the
// resulting detector syndrome against d, which must be the DEM extracted
// from circ. It is the sampling path behind bpsf-sim's circuit model.
// Determinism matches RunCircuit.
func RunCircuitFrames(circ *circuit.Circuit, d *dem.DEM, rounds int, mk Factory, cfg Config) (*Result, error) {
	if len(circ.Detectors) != d.NumDets || len(circ.Observables) != d.NumObs {
		return nil, fmt.Errorf("sim: circuit geometry (%d dets, %d obs) does not match the DEM (%d, %d)",
			len(circ.Detectors), len(circ.Observables), d.NumDets, d.NumObs)
	}
	return runBlocks(d, rounds, mk, cfg, func(seed int64) func(*frame.Batch) {
		return frame.NewCircuitSampler(circ, cfg.P, seed).SampleBlock
	})
}

// runBlocks is the shard body of the circuit-level runs: each shard reads
// its own block sampler, built by sampler from the shard seed, through a
// frame.Cursor and decodes against d.
func runBlocks(d *dem.DEM, rounds int, mk Factory, cfg Config, sampler func(seed int64) func(*frame.Batch)) (*Result, error) {
	sharder := func(shardSeed int64) (Shard, error) {
		dec, err := mk(d.H, d.Priors(cfg.P))
		if err != nil {
			return Shard{}, err
		}
		Reseed(dec, ShardSeed(shardSeed, 1))
		cur := frame.NewCursor(sampler(shardSeed))
		syndrome := gf2.NewVec(d.NumDets)
		obsFlips := gf2.NewVec(d.NumObs)
		obsHat := gf2.NewVec(d.NumObs)
		shot := func() (Outcome, bool) {
			sb, ob := cur.Next()
			// lengths match the DEM geometry by construction
			_ = syndrome.SetBytes(sb)
			_ = obsFlips.SetBytes(ob)
			out := dec.Decode(syndrome)
			return out, LogicalFailed(d.Obs, out, obsFlips, obsHat)
		}
		return Shard{Name: dec.Name(), Shot: shot}, nil
	}
	return Run(cfg, rounds, sharder)
}

// ParseBatchFlag resolves bpsf-load's -batch flag value: on selects
// server-side sampling, off client-side sampling. Unknown
// values return an error naming the accepted set (the CLIs exit non-zero
// printing it, mirroring the -decoder validation pattern).
func ParseBatchFlag(v string) (bool, error) {
	switch v {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	default:
		return false, fmt.Errorf("invalid -batch value %q (want on|off|true|false|1|0)", v)
	}
}
