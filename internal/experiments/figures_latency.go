package experiments

import (
	"fmt"
	"time"

	"bpsf/internal/sim"
)

// The latency figures (Fig. 13–16, Table I) report per-shot wall-clock
// distributions, so their Monte-Carlo runs pin Workers: 1 — concurrent
// shards contending for cores would inflate exactly the times being
// measured. Fig. 12 reports iteration counts (worker-invariant) and keeps
// the full parallelism budget.

// Fig12 reproduces Figure 12: complexity growth on the J144,12,12K code at
// p = 3×10⁻³ — average and worst-case BP iterations (serial accounting)
// against the logical error rate per round, for plain BP at several
// iteration caps and BP-SF at several (wmax, ns).
func Fig12(o Opts) (FigureResult, error) {
	const p = 3e-3
	rounds := roundsFor("bb144", 4, o)
	d, _, err := CachedDEM("bb144", rounds)
	if err != nil {
		return FigureResult{}, err
	}
	shots := o.shots(40)

	type entry struct {
		spec  sim.Spec
		group string
	}
	var entries []entry
	bpIters := []int{25, 100, 400}
	if o.Full {
		bpIters = []int{25, 50, 100, 200, 400, 1000}
	}
	for _, it := range bpIters {
		entries = append(entries, entry{BPSpec(it), "BP"})
	}
	nss := []int{1, 5}
	if o.Full {
		nss = []int{1, 2, 5, 10}
	}
	wmaxes := []int{1, 10}
	if o.Full {
		wmaxes = []int{1, 5, 10}
	}
	for _, wmax := range wmaxes {
		for _, ns := range nss {
			s := BPSFCircuitSpec(100, 50, wmax, ns)
			entries = append(entries, entry{s, fmt.Sprintf("BP-SF wmax=%d", wmax)})
		}
	}

	avgSeries := map[string]*sim.Series{}
	worstSeries := map[string]*sim.Series{}
	tb := sim.NewTable("decoder", "LER/round", "avg iters", "worst iters")
	for _, e := range entries {
		mc, err := sim.RunCircuit(d, rounds, e.spec.NewDecoder, sim.Config{
			P: p, Shots: shots, Seed: o.seed(), Workers: o.workers(),
		})
		if err != nil {
			return FigureResult{}, err
		}
		st := mc.IterationStats()
		if avgSeries[e.group] == nil {
			avgSeries[e.group] = &sim.Series{Label: e.group + " avg"}
			worstSeries[e.group] = &sim.Series{Label: e.group + " worst"}
		}
		// x = LER/round, y = iterations (paper's axes)
		avgSeries[e.group].Add(mc.LERRound, st.Avg)
		worstSeries[e.group].Add(mc.LERRound, float64(st.Max))
		tb.Row(e.spec.String(), mc.LERRound, st.Avg, st.Max)
	}
	res := FigureResult{Name: "fig12", Notes: fmt.Sprintf("rounds=%d p=%g", rounds, p)}
	for _, g := range []string{"BP", "BP-SF wmax=1", "BP-SF wmax=5", "BP-SF wmax=10"} {
		if avgSeries[g] != nil {
			sim.SortSeriesByX(avgSeries[g])
			sim.SortSeriesByX(worstSeries[g])
			res.Series = append(res.Series, *avgSeries[g], *worstSeries[g])
		}
	}
	fmt.Fprintln(o.out(), "== fig12: complexity growth, BB[[144,12,12]], p=3e-3 ==")
	err = tb.Write(o.out())
	return res, err
}

// Fig13 reproduces Figure 13: latency scaling with the number of error
// mechanisms at p = 3×10⁻³ across the four circuit-level codes — average
// decode time of BP-SF vs BP1000-OSD10, plus the post-processing-stage-only
// averages (the paper's dashed lines), measured over shots where the
// initial BP fails.
func Fig13(o Opts) (FigureResult, error) {
	const p = 3e-3
	shots := o.shots(25)
	codesList := []struct {
		name  string
		quick int
	}{
		{"coprime126", 3}, {"bb144", 3}, {"coprime154", 3}, {"bb288", 3},
	}
	sfNS := 5
	if o.Full {
		sfNS = 10
	}
	sfSpec := BPSFCircuitSpec(100, 50, 10, sfNS)
	osdSpec := BPOSDSpec(1000, 10)

	sfAvg := sim.Series{Label: "BP-SF avg"}
	osdAvg := sim.Series{Label: "BP1000-OSD10 avg"}
	sfPost := sim.Series{Label: "SF stage avg (on BP failure)"}
	osdPost := sim.Series{Label: "OSD stage avg (on BP failure)"}
	tb := sim.NewTable("code", "mechanisms", "BP-SF avg ms", "BP-OSD avg ms", "SF stage ms", "OSD stage ms")

	for ci, tc := range codesList {
		rounds := roundsFor(tc.name, tc.quick, o)
		d, css, err := CachedDEM(tc.name, rounds)
		if err != nil {
			return FigureResult{}, err
		}
		mechs := float64(d.NumMechs())
		row := []interface{}{css.Name, d.NumMechs()}
		for i, spec := range []sim.Spec{sfSpec, osdSpec} {
			mc, err := sim.RunCircuit(d, rounds, spec.NewDecoder, sim.Config{
				P: p, Shots: shots, Seed: o.seed() + int64(ci), KeepRecords: true, Workers: 1,
			})
			if err != nil {
				return FigureResult{}, err
			}
			var postTotal time.Duration
			postN := 0
			for _, r := range mc.Records {
				if r.PostUsed {
					postTotal += r.PostTime
					postN++
				}
			}
			postAvg := time.Duration(0)
			if postN > 0 {
				postAvg = postTotal / time.Duration(postN)
			}
			ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }
			if i == 0 {
				sfAvg.Add(mechs, ms(mc.AvgTime))
				sfPost.Add(mechs, ms(postAvg))
			} else {
				osdAvg.Add(mechs, ms(mc.AvgTime))
				osdPost.Add(mechs, ms(postAvg))
			}
			row = append(row, ms(mc.AvgTime), ms(postAvg))
		}
		tb.Row(row[0], row[1], row[2], row[4], row[3], row[5])
	}
	fmt.Fprintln(o.out(), "== fig13: latency scaling vs #mechanisms, p=3e-3 ==")
	err := tb.Write(o.out())
	return FigureResult{
		Name:   "fig13",
		Series: []sim.Series{sfAvg, osdAvg, sfPost, osdPost},
	}, err
}

// Table1 reproduces Table I: LER/round and average decoding time of
// BP-OSD10 on the J144,12,12K code at p = 3×10⁻³ as the BP iteration cap
// varies — demonstrating that fewer BP iterations can *increase* total
// latency by triggering the costly OSD stage more often.
func Table1(o Opts) (FigureResult, error) {
	const p = 3e-3
	rounds := roundsFor("bb144", 4, o)
	d, _, err := CachedDEM("bb144", rounds)
	if err != nil {
		return FigureResult{}, err
	}
	iters := []int{100, 400, 1000}
	if o.Full {
		iters = []int{100, 400, 1000, 2000, 10000}
	}
	shots := o.shots(50)
	ler := sim.Series{Label: "LER/round"}
	avgT := sim.Series{Label: "avg time ms"}
	tb := sim.NewTable("decoder", "LER/round", "avg time ms", "OSD invocations")
	for _, it := range iters {
		mc, err := sim.RunCircuit(d, rounds, BPOSDSpec(it, 10).NewDecoder, sim.Config{
			P: p, Shots: shots, Seed: o.seed(), Workers: 1,
		})
		if err != nil {
			return FigureResult{}, err
		}
		ms := float64(mc.AvgTime.Microseconds()) / 1000
		ler.Add(float64(it), mc.LERRound)
		avgT.Add(float64(it), ms)
		tb.Row(fmt.Sprintf("BP%d-OSD10", it), mc.LERRound, ms, mc.PostUsed)
	}
	fmt.Fprintln(o.out(), "== table1: BP-OSD iteration sweep, BB[[144,12,12]], p=3e-3 ==")
	err = tb.Write(o.out())
	return FigureResult{Name: "table1", Series: []sim.Series{ler, avgT}}, err
}

// Fig14 reproduces Figure 14: average decoding time per syndrome vs
// physical error rate on the J144,12,12K code: BP1000-OSD10, BP-SF
// (serial), BP-SF (P=8 worker pool), BP100 (lower bound), and the modeled
// GPU variants.
func Fig14(o Opts) (FigureResult, error) {
	rounds := roundsFor("bb144", 4, o)
	d, _, err := CachedDEM("bb144", rounds)
	if err != nil {
		return FigureResult{}, err
	}
	shots := o.shots(30)
	ps := []float64{0.001, 0.002, 0.003}
	gpu := sim.DefaultGPUModel()

	sfSerial := BPSFCircuitSpec(100, 50, 10, 10)
	sfPar := BPSFCircuitSpec(100, 50, 10, 10)
	sfPar.Workers = 8
	specs := []sim.Spec{BPOSDSpec(1000, 10), sfSerial, sfPar, BPSpec(100)}

	series := make([]sim.Series, len(specs))
	gpuSF := sim.Series{Label: "BP-SF (GPU_Est)"}
	gpuOSD := sim.Series{Label: "BP1000-OSD10 (GPU model)"}
	tb := sim.NewTable("decoder", "p", "avg ms", "max ms")
	for si, spec := range specs {
		series[si] = sim.Series{Label: spec.String()}
		for pi, p := range ps {
			mc, err := sim.RunCircuit(d, rounds, spec.NewDecoder, sim.Config{
				P: p, Shots: shots, Seed: o.seed() + int64(pi), KeepRecords: true, Workers: 1,
			})
			if err != nil {
				return FigureResult{}, err
			}
			var maxT time.Duration
			for _, r := range mc.Records {
				if r.Time > maxT {
					maxT = r.Time
				}
			}
			ms := float64(mc.AvgTime.Microseconds()) / 1000
			series[si].Add(p, ms)
			tb.Row(spec.String(), p, ms, float64(maxT.Microseconds())/1000)

			// GPU estimates derive from the serial BP-SF and BP-OSD records
			switch si {
			case 0: // BP-OSD: device BP + OSD-stage share scaled to device
				var tot time.Duration
				for _, r := range mc.Records {
					tot += gpu.Launch + time.Duration(r.InitIterations)*gpu.Iter +
						time.Duration(float64(r.PostTime)*gpuOSDScale)
				}
				gpuOSD.Add(p, float64((tot/time.Duration(len(mc.Records))).Microseconds())/1000)
			case 1: // serial BP-SF records → paper-style GPU_Est
				var tot time.Duration
				for _, r := range mc.Records {
					tot += gpu.Estimate(sim.Outcome{
						InitIterations:  r.InitIterations,
						TrialIterations: r.TrialIterations,
						TrialSuccess:    r.TrialSuccess,
					})
				}
				gpuSF.Add(p, float64((tot/time.Duration(len(mc.Records))).Microseconds())/1000)
			}
		}
	}
	fmt.Fprintln(o.out(), "== fig14: avg decode time per syndrome, BB[[144,12,12]] ==")
	err = tb.Write(o.out())
	return FigureResult{
		Name:   "fig14",
		Series: append(series, gpuSF, gpuOSD),
		Notes:  "GPU curves are modeled (see sim.GPUModel); P=8 wall-clock depends on host cores",
	}, err
}

// gpuOSDScale maps measured CPU OSD-stage time to the modeled device time,
// calibrated from the paper's reported 36.44 ms CPU vs 7.37 ms GPU BP-OSD
// averages.
const gpuOSDScale = 0.2

// Fig15 reproduces Figure 15: the distribution of single-syndrome decode
// times at p = 0.003 — BP1000-OSD10 vs BP-SF serial, with the P ∈ {2,4,8}
// worker-pool latencies derived from the measured per-trial iteration
// records via the schedule model.
func Fig15(o Opts) (FigureResult, error) {
	const p = 3e-3
	rounds := roundsFor("bb144", 4, o)
	d, _, err := CachedDEM("bb144", rounds)
	if err != nil {
		return FigureResult{}, err
	}
	shots := o.shots(30)

	// measured BP-OSD distribution
	osdMC, err := sim.RunCircuit(d, rounds, BPOSDSpec(1000, 10).NewDecoder, sim.Config{
		P: p, Shots: shots, Seed: o.seed(), KeepRecords: true, Workers: 1,
	})
	if err != nil {
		return FigureResult{}, err
	}
	// serial BP-SF. Its per-trial records stop at the first success, but
	// with P > 1 workers a later trial can finish first, and the records
	// do not hold it; the modeled P > 1 rows are therefore upper bounds
	// (DecodeAllTrials records would make them exact)
	sfSpec := BPSFCircuitSpec(100, 50, 10, 10)
	sfMC, err := sim.RunCircuit(d, rounds, sfSpec.NewDecoder, sim.Config{
		P: p, Shots: shots, Seed: o.seed(), KeepRecords: true, Workers: 1,
	})
	if err != nil {
		return FigureResult{}, err
	}

	// per-shot wall-clock time of one BP iteration, for converting the
	// schedule model's iteration units to time
	var iterUnit time.Duration
	var iterCount int
	for _, r := range sfMC.Records {
		iterUnit += r.Time
		iterCount += r.Iterations
	}
	if iterCount > 0 {
		iterUnit /= time.Duration(iterCount)
	}

	tb := sim.NewTable("decoder", "min ms", "median ms", "avg ms", "p99 ms", "max ms")
	res := FigureResult{Name: "fig15", Notes: "P>1 rows derive from the schedule model (iteration units × measured per-iteration time) over serial per-trial records, which stop at the first success; a later trial can finish first at P>1, so these rows are upper bounds"}
	ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }

	report := func(label string, ds []time.Duration) {
		st := sim.Summarize(ds)
		tb.Row(label, ms(st.Min), ms(st.P50), ms(st.Avg), ms(st.P99), ms(st.Max))
		s := sim.Series{Label: label}
		s.Add(0, ms(st.Min))
		s.Add(0.5, ms(st.P50))
		s.Add(0.99, ms(st.P99))
		s.Add(1, ms(st.Max))
		res.Series = append(res.Series, s)
	}

	osdTimes := make([]time.Duration, len(osdMC.Records))
	for i, r := range osdMC.Records {
		osdTimes[i] = r.Time
	}
	report("BP1000-OSD10", osdTimes)

	sfTimes := make([]time.Duration, len(sfMC.Records))
	for i, r := range sfMC.Records {
		sfTimes[i] = r.Time
	}
	report("BP-SF serial", sfTimes)

	for _, workers := range []int{2, 4, 8} {
		modeled := make([]time.Duration, len(sfMC.Records))
		for i, r := range sfMC.Records {
			iters := sim.ScheduleLatency(r.InitIterations, r.TrialIterations, r.TrialSuccess, workers)
			modeled[i] = time.Duration(iters) * iterUnit
		}
		report(fmt.Sprintf("BP-SF P=%d (model)", workers), modeled)
	}

	fmt.Fprintln(o.out(), "== fig15: decode-time distribution, BB[[144,12,12]], p=3e-3 ==")
	err = tb.Write(o.out())
	return res, err
}

// Fig16 reproduces Figure 16: the modeled GPU decode-time distributions —
// the paper's GPU_Est strategy (serial trial decoding on the device)
// against the GPU BP-OSD model, plus the batched-trials improvement the
// paper proposes.
func Fig16(o Opts) (FigureResult, error) {
	const p = 3e-3
	rounds := roundsFor("bb144", 4, o)
	d, _, err := CachedDEM("bb144", rounds)
	if err != nil {
		return FigureResult{}, err
	}
	shots := o.shots(30)
	gpu := sim.DefaultGPUModel()

	sfSpec := BPSFCircuitSpec(100, 50, 10, 10)
	sfMC, err := sim.RunCircuit(d, rounds, sfSpec.NewDecoder, sim.Config{
		P: p, Shots: shots, Seed: o.seed(), KeepRecords: true, Workers: 1,
	})
	if err != nil {
		return FigureResult{}, err
	}
	osdMC, err := sim.RunCircuit(d, rounds, BPOSDSpec(1000, 10).NewDecoder, sim.Config{
		P: p, Shots: shots, Seed: o.seed(), KeepRecords: true, Workers: 1,
	})
	if err != nil {
		return FigureResult{}, err
	}

	var est, batched, osdEst []time.Duration
	for _, r := range sfMC.Records {
		out := sim.Outcome{
			InitIterations:  r.InitIterations,
			TrialIterations: r.TrialIterations,
			TrialSuccess:    r.TrialSuccess,
		}
		est = append(est, gpu.Estimate(out))
		batched = append(batched, gpu.EstimateBatched(out))
	}
	for _, r := range osdMC.Records {
		osdEst = append(osdEst, gpu.Launch+time.Duration(r.InitIterations)*gpu.Iter+
			time.Duration(float64(r.PostTime)*gpuOSDScale))
	}

	tb := sim.NewTable("decoder", "avg ms", "p99 ms", "max ms")
	res := FigureResult{Name: "fig16", Notes: "all rows modeled with sim.GPUModel constants"}
	ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }
	for _, row := range []struct {
		label string
		ds    []time.Duration
	}{
		{"BP-SF (GPU_Est, serial trials)", est},
		{"BP-SF (GPU, batched trials)", batched},
		{"BP1000-OSD10 (GPU model)", osdEst},
	} {
		st := sim.Summarize(row.ds)
		tb.Row(row.label, ms(st.Avg), ms(st.P99), ms(st.Max))
		s := sim.Series{Label: row.label}
		s.Add(0, ms(st.Avg))
		s.Add(0.99, ms(st.P99))
		s.Add(1, ms(st.Max))
		res.Series = append(res.Series, s)
	}
	fmt.Fprintln(o.out(), "== fig16: modeled GPU decode-time distribution, p=3e-3 ==")
	err = tb.Write(o.out())
	return res, err
}
