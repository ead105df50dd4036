package sim

import (
	"fmt"

	"bpsf/internal/circuit"
	"bpsf/internal/dem"
	"bpsf/internal/frame"
	"bpsf/internal/gf2"
)

// RunCircuitFrames evaluates a decoder with shots sampled word-parallel
// from the CIRCUIT itself (frame.CircuitSampler): 64 Pauli frames at a
// time propagate through circ's gates, noise fires at its true circuit
// locations — including the exclusive depolarizing channels the DEM
// approximates as independent mechanisms — and the decoder sees the
// resulting detector syndrome against d, which must be the DEM extracted
// from circ. This is the hottest sampling path in the repo (~16× the
// scalar sampler on a 5-round rsurf5 experiment) and the default behind
// bpsf-sim's circuit model. Determinism matches the engine contract:
// per-shard splitmix seeding, bit-identical results for any Workers
// value.
func RunCircuitFrames(circ *circuit.Circuit, d *dem.DEM, rounds int, mk Factory, cfg Config) (*Result, error) {
	if len(circ.Detectors) != d.NumDets || len(circ.Observables) != d.NumObs {
		return nil, fmt.Errorf("sim: circuit geometry (%d dets, %d obs) does not match the DEM (%d, %d)",
			len(circ.Detectors), len(circ.Observables), d.NumDets, d.NumObs)
	}
	sharder := func(shardSeed int64) (Shard, error) {
		sampler := frame.NewCircuitSampler(circ, cfg.P, shardSeed)
		dec, err := mk(d.H, d.Priors(cfg.P))
		if err != nil {
			return Shard{}, err
		}
		Reseed(dec, ShardSeed(shardSeed, 1))
		cur := frame.NewCursor(sampler.SampleBlock)
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

// ParseBatchFlag resolves a CLI -batch flag value to the batch/scalar
// sampling toggle shared by bpsf-sim, bpsf-dem and bpsf-load. Unknown
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
