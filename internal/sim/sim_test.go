package sim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"bpsf/internal/bp"
	"bpsf/internal/bpsf"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/osd"
	"bpsf/internal/sparse"
)

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 100)
	if lo != 0 || hi < 0.01 || hi > 0.1 {
		t.Fatalf("Wilson(0,100) = [%v,%v]", lo, hi)
	}
	lo, hi = WilsonInterval(50, 100)
	if lo > 0.5 || hi < 0.5 {
		t.Fatalf("Wilson(50,100) = [%v,%v] must bracket 0.5", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatal("Wilson with n=0 should be [0,1]")
	}
}

func TestLERPerRound(t *testing.T) {
	// 1-(1-x)^d = ler  ⇔ per-round x
	got := LERPerRound(0.19, 2) // 1-(1-x)^2 = 0.19 → x = 0.1
	if got < 0.0999 || got > 0.1001 {
		t.Fatalf("LERPerRound = %v, want 0.1", got)
	}
	if LERPerRound(0.5, 0) != 0.5 {
		t.Fatal("rounds=0 should pass through")
	}
}

func TestSummaries(t *testing.T) {
	ds := []time.Duration{5, 1, 3, 2, 4}
	st := Summarize(ds)
	if st.Min != 1 || st.Max != 5 || st.P50 != 3 || st.Avg != 3 {
		t.Fatalf("duration stats wrong: %+v", st)
	}
	is := SummarizeInts([]int{10, 30, 20})
	if is.Min != 10 || is.Max != 30 || is.Median != 20 || is.Avg != 20 {
		t.Fatalf("int stats wrong: %+v", is)
	}
	if SummarizeInts(nil).N != 0 || Summarize(nil).N != 0 {
		t.Fatal("empty summaries should be zero")
	}
}

func TestTailCurve(t *testing.T) {
	// 10 shots: 8 converge at iterations {1,2,3,4,5,6,7,8}, 2 never
	iters := []int{1, 2, 3, 4, 5, 6, 7, 8}
	curve := TailCurve(iters, 2, 10, []int{0, 4, 8, 100})
	want := []float64{1.0, 0.6, 0.2, 0.2}
	for i := range want {
		if diff := curve[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("curve = %v, want %v", curve, want)
		}
	}
}

func TestScheduleLatencySerialEquivalence(t *testing.T) {
	iters := []int{10, 20, 30, 40}
	succ := []bool{false, false, true, false}
	// one worker = serial until first success: 10+20+30
	if got := ScheduleLatency(5, iters, succ, 1); got != 65 {
		t.Fatalf("serial latency = %d, want 65", got)
	}
	// unlimited workers: winner runs immediately: 5+30
	if got := ScheduleLatency(5, iters, succ, 100); got != 35 {
		t.Fatalf("parallel latency = %d, want 35", got)
	}
	// two workers: t=0 start {10,20}; t=10 start 30 → done 40; winner at 40
	if got := ScheduleLatency(0, iters, succ, 2); got != 40 {
		t.Fatalf("two-worker latency = %d, want 40", got)
	}
}

func TestScheduleLatencyNoSuccessIsMakespan(t *testing.T) {
	iters := []int{10, 20, 30}
	succ := []bool{false, false, false}
	// 2 workers: start {10,20}; t=10 start 30 → makespan 40
	if got := ScheduleLatency(0, iters, succ, 2); got != 40 {
		t.Fatalf("makespan = %d, want 40", got)
	}
	if got := ScheduleLatency(7, nil, nil, 4); got != 7 {
		t.Fatal("no trials should return init only")
	}
}

func TestScheduleLatencyCancelsLateTrials(t *testing.T) {
	// winner completes at 10; third trial would start at 10 and must be
	// cancelled, leaving latency 10 even though it would take 1000
	iters := []int{10, 15, 1000}
	succ := []bool{true, false, false}
	if got := ScheduleLatency(0, iters, succ, 2); got != 10 {
		t.Fatalf("latency = %d, want 10", got)
	}
}

// TestScheduleLatencyMatchesEngine holds the closed form to the engine:
// ScheduleLatency at P over a one-lane DecodeAllTrials decode's records
// equals the Steps of a P-lane decode of the same syndrome, and so does
// ScheduleLatency over the P-lane decode's own records.
func TestScheduleLatencyMatchesEngine(t *testing.T) {
	css, err := codes.CoprimeBB154()
	if err != nil {
		t.Fatal(err)
	}
	priors := uniformPriors(css.N, 0.05)
	cfg := bpsf.Config{
		Init:    bp.Config{MaxIter: 12},
		Trial:   bp.Config{MaxIter: 50},
		PhiSize: 8, WMax: 2, Policy: bpsf.Exhaustive,
	}
	decoders := map[int]*bpsf.Decoder{}
	for _, lanes := range []int{1, 2, 4, 8} {
		c := cfg
		c.Workers, c.DecodeAllTrials = lanes, lanes == 1
		if decoders[lanes], err = bpsf.New(css.HZ, priors, c); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(95))
	wins := 0
	for shot := 0; shot < 60; shot++ {
		e := gf2.NewVec(css.N)
		for k := 0; k < 9+r.Intn(6); k++ {
			e.Set(r.Intn(css.N), true)
		}
		s := css.SyndromeOfX(e)
		rec := decoders[1].Decode(s)
		if rec.WinningTrial >= 0 {
			wins++
		}
		for _, lanes := range []int{1, 2, 4, 8} {
			got := rec
			if lanes > 1 {
				got = decoders[lanes].Decode(s)
			}
			if w := ScheduleLatency(rec.InitIterations, rec.TrialIterations, rec.TrialSuccess, lanes); w != got.Steps {
				t.Fatalf("shot %d, %d lanes: ScheduleLatency over one lane's records = %d, engine Steps = %d", shot, lanes, w, got.Steps)
			}
			if w := ScheduleLatency(got.InitIterations, got.TrialIterations, got.TrialSuccess, lanes); w != got.Steps {
				t.Fatalf("shot %d, %d lanes: ScheduleLatency over the engine's records = %d, engine Steps = %d", shot, lanes, w, got.Steps)
			}
		}
	}
	if wins == 0 {
		t.Fatal("no trial won; the corpus does not reach the trial stage")
	}
}

func TestGPUModelEstimate(t *testing.T) {
	r := Record{
		InitIterations:  100,
		TrialIterations: []int{50, 60, 70},
		TrialSuccess:    []bool{false, true, false},
		PostTime:        4 * time.Millisecond,
	}
	// init launch + 100 iterations; trials 50 and 60, each with a launch,
	// stopping at the success
	want := 3*gpuLaunch + (100+50+60)*gpuIter
	if got := gpuEstimate(r); got != want {
		t.Fatalf("estimate = %v, want %v", got, want)
	}
	// batched: one extra launch + winner's iterations
	if got, want := gpuEstimateBatched(r), 2*gpuLaunch+(100+60)*gpuIter; got != want {
		t.Fatalf("batched = %v, want %v", got, want)
	}
	// baseline: one launch + BP iterations + the OSD stage scaled to the
	// device (0.2 × 4ms)
	if got, want := gpuEstimateBaseline(r), gpuLaunch+100*gpuIter+800*time.Microsecond; got != want {
		t.Fatalf("baseline = %v, want %v", got, want)
	}
}

func TestLatencyStudy(t *testing.T) {
	base := &Result{Decoder: "BP1000-OSD10", Records: []Record{
		{InitIterations: 1000, Time: 9 * time.Millisecond, PostTime: 8 * time.Millisecond},
		{InitIterations: 10, Time: time.Millisecond},
	}}
	// each shot is priced at its own time per iteration: 3µs, then 1µs
	const sf = "BP-SF(BP100,wmax=3,phi=3)"
	dec := &Result{Decoder: sf, Records: []Record{
		{Iterations: 100 + 300 + 200 + 400, InitIterations: 100, Time: 3 * time.Millisecond,
			TrialIterations: []int{300, 200, 400}, TrialSuccess: []bool{false, false, true}},
		{Iterations: 1000, InitIterations: 1000, Time: time.Millisecond},
	}}
	rows, err := LatencyStudy(base, dec, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	type wantRow struct {
		label    string
		gpu      bool
		min, max time.Duration
	}
	baseGPU := wantRow{"BP1000-OSD10 (GPU model)", true,
		gpuLaunch + 10*gpuIter,
		gpuLaunch + 1000*gpuIter + 1600*time.Microsecond} // 0.2 × 8ms OSD stage
	check := func(name string, rows []LatencyRow, want []wantRow) {
		t.Helper()
		if len(rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d: %+v", name, len(rows), len(want), rows)
		}
		for i, w := range want {
			r := rows[i]
			lo, hi := min(w.min, w.max), max(w.min, w.max)
			if r.Label != w.label || r.GPU != w.gpu || r.Min != lo || r.Max != hi || r.N != 2 {
				t.Errorf("%s row %d = %q gpu=%v min=%v max=%v n=%d, want %q gpu=%v min=%v max=%v",
					name, i, r.Label, r.GPU, r.Min, r.Max, r.N, w.label, w.gpu, lo, hi)
			}
		}
	}
	check("BP-SF", rows, []wantRow{
		{"BP1000-OSD10", false, time.Millisecond, 9 * time.Millisecond},
		{sf + " serial", false, time.Millisecond, 3 * time.Millisecond},
		// P=2: lane 0 takes trials 0 and 2, so the winner ends at
		// 300+400; the second shot has no trials and keeps its 1ms
		{"BP-SF P=2 (model)", false, time.Millisecond, 800 * 3 * time.Microsecond},
		// P=3: every trial starts at 0, the winner ends at 400
		{"BP-SF P=3 (model)", false, time.Millisecond, 500 * 3 * time.Microsecond},
		// serial GPU trials: a launch each, stopping at the success
		{"BP-SF (GPU_Est)", true,
			gpuLaunch + 1000*gpuIter,
			4*gpuLaunch + (100+300+200+400)*gpuIter},
		// batched: one launch for all trials, bounded by the winner
		{"BP-SF (GPU, batched trials)", true,
			2*gpuLaunch + (100+400)*gpuIter,
			gpuLaunch + 1000*gpuIter},
		baseGPU,
	})

	// a BP-SF run in which no shot reached post-processing keeps its
	// model and GPU rows: the initial BP alone
	quiet := &Result{Decoder: sf, Records: []Record{
		{Iterations: 40, InitIterations: 40, Time: time.Millisecond},
		{Iterations: 10, InitIterations: 10, Time: time.Millisecond},
	}}
	rows, err = LatencyStudy(base, quiet, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	check("BP-SF without trials", rows, []wantRow{
		{"BP1000-OSD10", false, time.Millisecond, 9 * time.Millisecond},
		{sf + " serial", false, time.Millisecond, time.Millisecond},
		{"BP-SF P=2 (model)", false, time.Millisecond, time.Millisecond},
		{"BP-SF (GPU_Est)", true, gpuLaunch + 10*gpuIter, gpuLaunch + 40*gpuIter},
		{"BP-SF (GPU, batched trials)", true, gpuLaunch + 10*gpuIter, gpuLaunch + 40*gpuIter},
		baseGPU,
	})

	// other decoders give the measured rows and the baseline's device model
	plain := &Result{Decoder: "UF", Records: []Record{{Iterations: 3, Time: time.Millisecond}, {Time: time.Millisecond}}}
	rows, err = LatencyStudy(base, plain, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	check("UF", rows, []wantRow{
		{"BP1000-OSD10", false, time.Millisecond, 9 * time.Millisecond},
		{"UF serial", false, time.Millisecond, time.Millisecond},
		baseGPU,
	})

	// a trial recorded after a success (DecodeAllTrials, parallel lanes)
	// would make the schedule model double-count; it is refused
	all := &Result{Decoder: sf, Records: []Record{dec.Records[1], {
		Iterations: 300, InitIterations: 100, Time: time.Millisecond,
		TrialIterations: []int{100, 100}, TrialSuccess: []bool{true, false},
	}}}
	if _, err := LatencyStudy(base, all, []int{2}); err == nil || !strings.Contains(err.Error(), "after a success") {
		t.Fatalf("trial after success: err = %v, want a refusal", err)
	}
	// the runs must cover the same shots, with records kept
	if _, err := LatencyStudy(base, &Result{Decoder: sf}, nil); err == nil {
		t.Fatal("study over a run without records accepted")
	}

	rows, err = LatencyStudy(base, dec, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	series, err := WriteLatency(&buf, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(rows) || series[2].Label != "BP-SF P=2 (model)" || series[2].Y[3] != 2.4 {
		t.Fatalf("series = %+v", series)
	}
	if !strings.Contains(buf.String(), "BP-SF P=3 (model)") || !strings.Contains(buf.String(), "median ms") {
		t.Fatalf("table:\n%s", buf.String())
	}
}

// TestLatencyStudyModelBoundedBySerial prices random serial BP-SF records
// one shot at a time: the P=1 model row equals the measured serial row on
// every shot, and no P row exceeds it.
func TestLatencyStudyModelBoundedBySerial(t *testing.T) {
	const sf = "BP-SF(BP100,wmax=10,phi=50,ns=10)"
	rng := rand.New(rand.NewSource(5))
	base := &Result{Decoder: "BP1000-OSD-CS10", Records: []Record{{InitIterations: 10, Time: time.Millisecond}}}
	workers := []int{1, 2, 3, 8, 100}
	for shot := 0; shot < 500; shot++ {
		r := Record{InitIterations: 1 + rng.Intn(100), Time: time.Duration(1 + rng.Int63n(int64(100*time.Millisecond)))}
		r.Iterations = r.InitIterations
		for k := rng.Intn(30); k > 0; k-- {
			it, ok := 1+rng.Intn(100), rng.Intn(5) == 0
			r.TrialIterations = append(r.TrialIterations, it)
			r.TrialSuccess = append(r.TrialSuccess, ok)
			r.Iterations += it
			if ok {
				break
			}
		}
		rows, err := LatencyStudy(base, &Result{Decoder: sf, Records: []Record{r}}, workers)
		if err != nil {
			t.Fatal(err)
		}
		serial := rows[1]
		if serial.Max != r.Time {
			t.Fatalf("shot %d: serial row %v, want the measured %v", shot, serial.Max, r.Time)
		}
		for i, w := range workers {
			model := rows[2+i]
			if w == 1 && model.Max != serial.Max {
				t.Fatalf("shot %d: P=1 model %v, serial %v (%+v)", shot, model.Max, serial.Max, r)
			}
			if model.Max > serial.Max {
				t.Fatalf("shot %d: P=%d model %v above serial %v (%+v)", shot, w, model.Max, serial.Max, r)
			}
		}
	}
}

func TestSeriesCSV(t *testing.T) {
	var s Series
	s.Label = "test"
	s.AddWithBounds(1, 0.5, 0.4, 0.6)
	s.AddWithBounds(2, 0.25, 0.2, 0.3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "label,x,y,ylow,yhigh") || !strings.Contains(out, "test,1,0.5,0.4,0.6") {
		t.Fatalf("csv output:\n%s", out)
	}
}

func TestSortSeriesByX(t *testing.T) {
	s := Series{X: []float64{3, 1, 2}, Y: []float64{30, 10, 20}}
	SortSeriesByX(&s)
	if s.X[0] != 1 || s.Y[0] != 10 || s.X[2] != 3 || s.Y[2] != 30 {
		t.Fatalf("sorted: %+v", s)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("decoder", "ler")
	tb.Row("BP1000", 0.001234)
	tb.Row("BP-SF", 2.5e-6)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "decoder") || !strings.Contains(out, "BP-SF") {
		t.Fatalf("table output:\n%s", out)
	}
}

// TestTableAlignsRunes: a cell with a multi-byte rune ("→", as in
// bpsf-load's "server (arrival→commit)" row) pads by runes, so every
// row's second column starts at the same display column.
func TestTableAlignsRunes(t *testing.T) {
	tb := NewTable("latency", "n", "p50 ms")
	tb.Row("server (arrival→commit)", 12, 0.5)
	tb.Row("client (send→recv)", 12, 0.75)
	tb.Row("plain", 1, 2.0)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want header, rule and 3 rows:\n%s", buf.String())
	}
	// rune column where the second cell starts (cells are joined by two
	// spaces)
	col := func(line, cell string) int {
		i := strings.Index(line, "  "+cell+" ")
		if i < 0 {
			t.Fatalf("%q missing from %q", cell, line)
		}
		return utf8.RuneCountInString(line[:i]) + 2
	}
	want := col(lines[0], "n")
	for i, cell := range []string{"12", "12", "1"} {
		if got := col(lines[2+i], cell); got != want {
			t.Errorf("row %d: column 2 starts at rune %d, header at %d:\n%s", i, got, want, buf.String())
		}
	}
	if rule := lines[1]; utf8.RuneCountInString(strings.Fields(rule)[0]) != utf8.RuneCountInString("server (arrival→commit)") {
		t.Errorf("first rule %q is not the widest cell's rune width", strings.Fields(rule)[0])
	}
}

// --- integration: capacity model, three decoder families ---

func TestRunCapacityIntegration(t *testing.T) {
	css, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{P: 0.01, Shots: 60, Seed: 11}

	bpMk := func(h *sparse.Mat, priors []float64) (Decoder, error) {
		return NewBP(h, priors, bp.Config{MaxIter: 60}), nil
	}
	res, err := RunCapacity(css, bpMk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 60 || res.LER > 0.5 {
		t.Fatalf("BP capacity result implausible: %+v", res)
	}

	osdMk := func(h *sparse.Mat, priors []float64) (Decoder, error) {
		return NewBPOSD(h, priors, bp.Config{MaxIter: 60}, osd.Config{Method: osd.OSDCS, Order: 4}), nil
	}
	resOSD, err := RunCapacity(css, osdMk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resOSD.Failures > res.Failures {
		t.Fatalf("BP-OSD (%d) worse than plain BP (%d) at same seed", resOSD.Failures, res.Failures)
	}

	sfMk := func(h *sparse.Mat, priors []float64) (Decoder, error) {
		return NewBPSF(h, priors, bpsf.Config{
			Init:    bp.Config{MaxIter: 60},
			PhiSize: 4, WMax: 1, Policy: bpsf.Exhaustive,
		})
	}
	resSF, err := RunCapacity(css, sfMk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resSF.Failures > res.Failures {
		t.Fatalf("BP-SF (%d) worse than plain BP (%d) at same seed", resSF.Failures, res.Failures)
	}
}

func TestRunCapacityEarlyStop(t *testing.T) {
	css, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(h *sparse.Mat, priors []float64) (Decoder, error) {
		return NewBP(h, priors, bp.Config{MaxIter: 3}), nil
	}
	res, err := RunCapacity(css, mk, Config{P: 0.15, Shots: 10000, Seed: 3, MaxLogicalErrors: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures < 5 || res.Shots >= 10000 {
		t.Fatalf("early stop failed: %d failures in %d shots", res.Failures, res.Shots)
	}
}

// --- integration: circuit-level model over the full substrate ---

func TestRunCircuitIntegration(t *testing.T) {
	css, err := codes.Surface(3)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(css, 3, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	d, err := dem.Extract(circ)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(h *sparse.Mat, priors []float64) (Decoder, error) {
		return NewBPSF(h, priors, bpsf.Config{
			Init:    bp.Config{MaxIter: 40},
			Trial:   bp.Config{MaxIter: 40},
			PhiSize: 10, WMax: 2, NS: 3, Policy: bpsf.Sampled,
		})
	}
	res, err := RunCircuit(d, 3, mk, Config{P: 0.004, Shots: 150, Seed: 21, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 150 {
		t.Fatalf("shots = %d", res.Shots)
	}
	if res.LER > 0.4 {
		t.Fatalf("surface-3 LER %v implausibly high at p=0.004", res.LER)
	}
	if res.LERRound <= 0 && res.Failures > 0 {
		t.Fatal("per-round LER missing")
	}
	if len(res.Records) != res.Shots {
		t.Fatal("records not kept")
	}
	if res.LERLow > res.LER || res.LERHigh < res.LER {
		t.Fatal("Wilson bounds do not bracket the LER")
	}
}

func TestRunCircuitDeterministicSeed(t *testing.T) {
	css, err := codes.Surface(3)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(css, 2, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	d, err := dem.Extract(circ)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(h *sparse.Mat, priors []float64) (Decoder, error) {
		return NewBP(h, priors, bp.Config{MaxIter: 30}), nil
	}
	a, err := RunCircuit(d, 2, mk, Config{P: 0.01, Shots: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCircuit(d, 2, mk, Config{P: 0.01, Shots: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.AvgIters != b.AvgIters {
		t.Fatal("same seed produced different results")
	}
}
