package experiments

import (
	"fmt"

	"bpsf/internal/bp"
	bpsfcore "bpsf/internal/bpsf"
	"bpsf/internal/dem"
	"bpsf/internal/sim"
)

// Fig2 reproduces Figure 2: the non-convergence tail of plain BP on the
// J144,12,12K code under circuit-level noise at p ∈ {0.001, 0.002}
// (fraction of syndromes not converged within i iterations, itmax=1000).
func Fig2(o Opts) (FigureResult, error) {
	rounds := roundsFor("bb144", 4, o)
	d, _, err := CachedDEM("bb144", rounds)
	if err != nil {
		return FigureResult{}, err
	}
	shots := o.shots(200)
	budgets := []int{1, 2, 3, 5, 8, 12, 20, 30, 50, 80, 120, 200, 350, 600, 1000}
	res := FigureResult{Name: "fig02", Notes: fmt.Sprintf("rounds=%d", rounds)}
	tb := sim.NewTable("p", "shots", "avg iters (converged)", "non-convergence rate")
	for pi, p := range []float64{0.001, 0.002} {
		sampler := dem.NewSampler(d, p, o.seed()+int64(pi))
		dec := bp.New(d.H, sampler.Priors(), bp.Config{MaxIter: 1000})
		var converged []int
		failures := 0
		var iterSum float64
		for shot := 0; shot < shots; shot++ {
			sh := sampler.Sample()
			r := dec.Decode(sh.Syndrome)
			if r.Success {
				converged = append(converged, r.Iterations)
				iterSum += float64(r.Iterations)
			} else {
				failures++
			}
		}
		curve := sim.TailCurve(converged, failures, shots, budgets)
		series := sim.Series{Label: fmt.Sprintf("p=%g", p)}
		for i, b := range budgets {
			series.Add(float64(b), curve[i])
		}
		res.Series = append(res.Series, series)
		avg := 0.0
		if len(converged) > 0 {
			avg = iterSum / float64(len(converged))
		}
		tb.Row(p, shots, avg, float64(failures)/float64(shots))
	}
	fmt.Fprintln(o.out(), "== fig02: BB[[144,12,12]] BP convergence tail ==")
	err = tb.Write(o.out())
	return res, err
}

// Fig3 reproduces Figure 3: precision and recall of the top-50 oscillating
// bits against the true error support, measured over BP50 decoding
// failures on the J144,12,12K code under circuit-level noise.
func Fig3(o Opts) (FigureResult, error) {
	rounds := roundsFor("bb144", 4, o)
	d, _, err := CachedDEM("bb144", rounds)
	if err != nil {
		return FigureResult{}, err
	}
	maxShots := o.shots(400)
	targetFailures := 25
	if o.Full {
		targetFailures = 1000
	}
	const phiSize = 50
	ps := []float64{0.001, 0.002, 0.005, 0.01}
	prec := sim.Series{Label: "hit precision"}
	rec := sim.Series{Label: "hit recall"}
	tb := sim.NewTable("p", "failures", "precision", "recall")
	for pi, p := range ps {
		sampler := dem.NewSampler(d, p, o.seed()+int64(pi))
		dec := bp.New(d.H, sampler.Priors(),
			bp.Config{MaxIter: 50, TrackOscillation: true})
		var pSum, rSum float64
		failures := 0
		for shot := 0; shot < maxShots && failures < targetFailures; shot++ {
			sh := sampler.Sample()
			r := dec.Decode(sh.Syndrome)
			if r.Success {
				continue
			}
			failures++
			phi := bpsfcore.SelectCandidates(r.FlipCount, r.Marginal, phiSize)
			pr, rc := bpsfcore.PrecisionRecall(phi, sh.Mechs)
			pSum += pr
			rSum += rc
		}
		if failures == 0 {
			tb.Row(p, 0, "-", "-")
			continue
		}
		prec.Add(p, pSum/float64(failures))
		rec.Add(p, rSum/float64(failures))
		tb.Row(p, failures, pSum/float64(failures), rSum/float64(failures))
	}
	fmt.Fprintln(o.out(), "== fig03: oscillating-bit precision/recall (|Φ|=50, BP50) ==")
	err = tb.Write(o.out())
	return FigureResult{Name: "fig03", Series: []sim.Series{prec, rec}}, err
}

// Fig7 reproduces Figure 7: LER/round of the J144,12,12K code under
// circuit-level noise. BP-SF at (wmax=6, ns=5) and (wmax=10, ns=10) with
// BP100 and |Φ|=50, against BP1000-OSD10, BP1000 and BP10000.
func Fig7(o Opts) (FigureResult, error) {
	specs := []sim.Spec{
		BPSFCircuitSpec(100, 50, 6, 5),
		BPSFCircuitSpec(100, 50, 10, 10),
		BPOSDSpec(1000, 10),
		BPSpec(1000),
	}
	ps := []float64{0.002, 0.003}
	if o.Full {
		specs = append(specs, BPSpec(10000))
		ps = []float64{0.001, 0.002, 0.003, 0.004, 0.006}
	}
	return circuitSweep("fig07", "bb144", 4, specs, ps, o.shots(50), o)
}

// Fig8 reproduces Figure 8: the J288,12,18K code under circuit-level
// noise, layered BP for all decoders (labelled ",layered") plus one
// flooding BP-SF entry, the paper's dashed line.
func Fig8(o Opts) (FigureResult, error) {
	layered := func(s sim.Spec) sim.Spec { s.Layered = true; return s }
	specs := []sim.Spec{
		layered(BPSFCircuitSpec(100, 50, 10, 10)),
		layered(BPOSDSpec(1000, 10)),
		layered(BPSpec(1000)),
		BPSFCircuitSpec(100, 50, 10, 10),
	}
	ps := []float64{0.002, 0.003}
	if o.Full {
		ps = []float64{0.001, 0.002, 0.003, 0.004}
	}
	return circuitSweep("fig08", "bb288", 3, specs, ps, o.shots(40), o)
}

// Fig9 reproduces Figure 9: the J154,6,16K coprime-BB code under
// circuit-level noise; BP-SF at (wmax=6, ns=10) and (wmax=10, ns=10).
func Fig9(o Opts) (FigureResult, error) {
	specs := []sim.Spec{
		BPSFCircuitSpec(100, 50, 6, 10),
		BPSFCircuitSpec(100, 50, 10, 10),
		BPOSDSpec(1000, 10),
		BPSpec(1000),
	}
	ps := []float64{0.002, 0.003}
	if o.Full {
		specs = append(specs, BPSpec(10000))
		ps = []float64{0.001, 0.002, 0.003, 0.005}
	}
	return circuitSweep("fig09", "coprime154", 4, specs, ps, o.shots(50), o)
}

// Fig10 reproduces Figure 10: the J126,12,10K coprime-BB code under
// circuit-level noise; BP-SF at (wmax=6, ns=5) and (wmax=10, ns=10).
func Fig10(o Opts) (FigureResult, error) {
	specs := []sim.Spec{
		BPSFCircuitSpec(100, 50, 6, 5),
		BPSFCircuitSpec(100, 50, 10, 10),
		BPOSDSpec(1000, 10),
		BPSpec(1000),
	}
	ps := []float64{0.002, 0.003}
	if o.Full {
		specs = append(specs, BPSpec(10000))
		ps = []float64{0.001, 0.002, 0.003, 0.005}
	}
	return circuitSweep("fig10", "coprime126", 4, specs, ps, o.shots(50), o)
}

// Fig11 reproduces Figure 11: the J225,16,8K SHYPS code under
// circuit-level noise (gauge measurements, stabilizer detectors as gauge
// XOR combos); BP-SF at wmax=5, ns=5.
func Fig11(o Opts) (FigureResult, error) {
	specs := []sim.Spec{
		BPSFCircuitSpec(100, 50, 5, 5),
		BPOSDSpec(1000, 10),
		BPSpec(1000),
	}
	ps := []float64{0.002, 0.003}
	if o.Full {
		ps = []float64{0.001, 0.002, 0.003}
	}
	return circuitSweep("fig11", "shyps225", 3, specs, ps, o.shots(50), o)
}

// Fig17c reproduces Figure 17(c): the J72,12,6K code under circuit-level
// noise — a "good" code where plain BP already matches the post-processed
// decoders. BP-SF uses BP50, wmax=4, |Φ|=20, ns=5.
func Fig17c(o Opts) (FigureResult, error) {
	specs := []sim.Spec{
		BPSFCircuitSpec(50, 20, 4, 5),
		BPOSDSpec(1000, 10),
		BPSpec(1000),
	}
	ps := []float64{0.002, 0.004}
	if o.Full {
		ps = []float64{0.001, 0.002, 0.003, 0.005}
	}
	return circuitSweep("fig17c", "bb72", 3, specs, ps, o.shots(80), o)
}
