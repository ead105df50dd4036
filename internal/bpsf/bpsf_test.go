package bpsf

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"bpsf/internal/bp"
	"bpsf/internal/code"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/tanner"
)

func TestSelectCandidatesOrdering(t *testing.T) {
	flips := []int{0, 5, 2, 5, 1}
	marg := []float64{0.1, -3.0, 1.0, 0.5, 2.0}
	phi := SelectCandidates(flips, marg, 3)
	// counts: idx1=5, idx3=5 (tie: |0.5| < |3.0| → idx3 first), idx2=2
	if len(phi) != 3 || phi[0] != 3 || phi[1] != 1 || phi[2] != 2 {
		t.Fatalf("phi = %v, want [3 1 2]", phi)
	}
}

func TestSelectCandidatesFallbackAllZero(t *testing.T) {
	flips := []int{0, 0, 0, 0}
	marg := []float64{5, -0.2, 3, 0.9}
	phi := SelectCandidates(flips, marg, 2)
	if len(phi) != 2 || phi[0] != 1 || phi[1] != 3 {
		t.Fatalf("fallback phi = %v, want [1 3]", phi)
	}
}

func TestSelectCandidatesClamp(t *testing.T) {
	if got := SelectCandidates([]int{1, 2}, []float64{0, 0}, 10); len(got) != 2 {
		t.Fatalf("clamped phi size = %d, want 2", len(got))
	}
	if got := SelectCandidates([]int{1, 2}, []float64{0, 0}, 0); got != nil {
		t.Fatal("phi=0 should return nil")
	}
}

func TestPrecisionRecall(t *testing.T) {
	p, r := PrecisionRecall([]int{1, 2, 3, 4}, []int{2, 4, 9})
	if p != 0.5 || r < 0.66 || r > 0.67 {
		t.Fatalf("precision=%v recall=%v", p, r)
	}
	p, r = PrecisionRecall(nil, []int{1})
	if p != 0 || r != 0 {
		t.Fatal("empty candidates should give 0/0")
	}
}

func TestExhaustiveTrialsWeightOne(t *testing.T) {
	phi := []int{7, 3, 9}
	trials, err := new(trialGenerator).generate(phi, Exhaustive, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 3 {
		t.Fatalf("trials = %v", trials)
	}
	for i, tr := range trials {
		if len(tr) != 1 || tr[0] != phi[i] {
			t.Fatalf("trial %d = %v", i, tr)
		}
	}
}

func TestExhaustiveTrialsWeightTwo(t *testing.T) {
	phi := []int{1, 2, 3, 4}
	trials, err := new(trialGenerator).generate(phi, Exhaustive, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// C(4,1) + C(4,2) = 4 + 6
	if len(trials) != 10 {
		t.Fatalf("got %d trials, want 10", len(trials))
	}
	// first trials are weight 1, later weight 2
	if len(trials[0]) != 1 || len(trials[9]) != 2 {
		t.Fatal("weight ordering wrong")
	}
}

func TestExhaustiveTrialsClampWMax(t *testing.T) {
	trials, err := new(trialGenerator).generate([]int{1, 2}, Exhaustive, 5, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// weights 1 and 2 only: 2 + 1
	if len(trials) != 3 {
		t.Fatalf("got %d trials, want 3", len(trials))
	}
}

func TestSampledTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	phi := []int{10, 20, 30, 40, 50}
	trials, err := new(trialGenerator).generate(phi, Sampled, 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 12 { // ns × wmax
		t.Fatalf("got %d trials, want 12", len(trials))
	}
	inPhi := map[int]bool{}
	for _, p := range phi {
		inPhi[p] = true
	}
	for k, tr := range trials {
		wantW := k/4 + 1
		if len(tr) != wantW {
			t.Fatalf("trial %d weight %d, want %d", k, len(tr), wantW)
		}
		seen := map[int]bool{}
		for _, c := range tr {
			if !inPhi[c] {
				t.Fatalf("trial bit %d not in Φ", c)
			}
			if seen[c] {
				t.Fatalf("duplicate bit in trial %v", tr)
			}
			seen[c] = true
		}
	}
}

func TestGenerateTrialsErrors(t *testing.T) {
	if _, err := new(trialGenerator).generate([]int{1}, Exhaustive, 0, 0, nil); err == nil {
		t.Fatal("wMax=0 accepted")
	}
	if _, err := new(trialGenerator).generate([]int{1}, Sampled, 1, 0, nil); err == nil {
		t.Fatal("ns=0 accepted for sampled")
	}
	if _, err := new(trialGenerator).generate([]int{1}, TrialPolicy(9), 1, 1, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestTrialPolicyString(t *testing.T) {
	if Exhaustive.String() != "exhaustive" || Sampled.String() != "sampled" || TrialPolicy(9).String() != "unknown" {
		t.Fatal("TrialPolicy.String wrong")
	}
}

func TestNewConfigValidation(t *testing.T) {
	c, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, c.N)
	for i := range probs {
		probs[i] = 0.01
	}
	if _, err := New(c.HZ, probs, Config{PhiSize: 0, WMax: 1}); err == nil {
		t.Fatal("PhiSize=0 accepted")
	}
	if _, err := New(c.HZ, probs, Config{PhiSize: 4, WMax: 0}); err == nil {
		t.Fatal("WMax=0 accepted")
	}
	if _, err := New(c.HZ, probs, Config{PhiSize: 4, WMax: 1, Policy: Sampled}); err == nil {
		t.Fatal("Sampled with NS=0 accepted")
	}
}

// bb154Corpus samples n syndromes of random X errors of weight about
// minWeight or more on the coprime-BB154 code.
func bb154Corpus(t *testing.T, n, minWeight int, seed int64) (*code.CSS, []float64, []gf2.Vec) {
	t.Helper()
	c, err := codes.CoprimeBB154()
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, c.N)
	for i := range probs {
		probs[i] = 0.05
	}
	r := rand.New(rand.NewSource(seed))
	syndromes := make([]gf2.Vec, n)
	for i := range syndromes {
		e := gf2.NewVec(c.N)
		for k := 0; k < minWeight+r.Intn(6); k++ {
			e.Set(r.Intn(c.N), true)
		}
		syndromes[i] = c.SyndromeOfX(e)
	}
	return c, probs, syndromes
}

// bb154Config is the exhaustive decodeMany configuration.
var bb154Config = Config{
	Init:    bp.Config{MaxIter: 12},
	Trial:   bp.Config{MaxIter: 50},
	PhiSize: 8,
	WMax:    2,
	Policy:  Exhaustive,
}

// decodeMany drives BP-SF over random errors and verifies the flip-back
// invariant: any successful estimate must satisfy the ORIGINAL syndrome.
func decodeMany(t *testing.T, workers int, seed int64) (successes, postUses int) {
	t.Helper()
	c, probs, syndromes := bb154Corpus(t, 40, 3, seed)
	cfg := bb154Config
	cfg.Workers, cfg.Seed = workers, seed
	d, err := New(c.HZ, probs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for trial, s := range syndromes {
		res := d.Decode(s)
		if res.UsedPostProcessing {
			postUses++
		}
		if res.Success {
			successes++
			if !c.SyndromeOfX(res.ErrHat).Equal(s) {
				t.Fatalf("flip-back invariant violated: estimate does not satisfy original syndrome (workers=%d trial=%d)", workers, trial)
			}
		}
		if res.InitIterations < 1 {
			t.Fatal("missing init iterations")
		}
		if res.UsedPostProcessing && res.Success && res.WinningTrial < 0 {
			t.Fatal("post-processing success without winning trial")
		}
		if res.TotalIterations < res.InitIterations {
			t.Fatal("total iterations below init iterations")
		}
		if res.Steps > res.TotalIterations {
			t.Fatal("latency in steps exceeds the work")
		}
	}
	return successes, postUses
}

// trialConfigs returns cfg's initial and trial BP configurations as New
// resolves them.
func trialConfigs(cfg Config) (initCfg, trialCfg bp.Config) {
	initCfg, trialCfg = cfg.Init, cfg.Trial
	initCfg.TrackOscillation = true
	if trialCfg.MaxIter == 0 {
		trialCfg = initCfg
	}
	trialCfg.TrackOscillation = false
	return initCfg, trialCfg
}

// decodeTrial decodes trial t of syndrome s with a fresh BP decoder and
// returns its result, the estimate flipped back.
func decodeTrial(g *tanner.Graph, probs []float64, trialCfg bp.Config, s gf2.Vec, t []int) bp.Result {
	sp := s.Clone()
	g.H.MulSupportInto(sp, t)
	tr := bp.New(g, probs, trialCfg).Decode(sp)
	for _, col := range t {
		tr.ErrHat.Flip(col)
	}
	return tr
}

// serialReference is Algorithm 1 as a plain in-order loop, with the
// one-lane accounting: trials decode in index order, the first success
// wins and ends the stage unless cfg.DecodeAllTrials. Sampled trials draw
// from a fresh generator seeded with seed. It also returns the trials.
func serialReference(g *tanner.Graph, probs []float64, cfg Config, s gf2.Vec, seed int64) (Result, [][]int) {
	initCfg, trialCfg := trialConfigs(cfg)
	ir := bp.New(g, probs, initCfg).Decode(s)
	res := Result{Success: ir.Success, ErrHat: ir.ErrHat, InitIterations: ir.Iterations, WinningTrial: -1,
		TotalIterations: ir.Iterations, Steps: ir.Iterations}
	if ir.Success {
		return res, nil
	}
	res.UsedPostProcessing = true
	res.Candidates = SelectCandidates(ir.FlipCount, ir.Marginal, cfg.PhiSize)
	trials, _ := new(trialGenerator).generate(res.Candidates, cfg.Policy, cfg.WMax, cfg.NS, rand.New(rand.NewSource(seed)))
	res.Trials = len(trials)
	for k, t := range trials {
		tr := decodeTrial(g, probs, trialCfg, s, t)
		res.TrialIterations = append(res.TrialIterations, tr.Iterations)
		res.TrialSuccess = append(res.TrialSuccess, tr.Success)
		if res.WinningTrial >= 0 {
			continue
		}
		res.TotalIterations += tr.Iterations
		if tr.Success {
			res.Success, res.ErrHat, res.WinningTrial = true, tr.ErrHat, k
			if !cfg.DecodeAllTrials {
				break
			}
		}
	}
	res.Steps = res.TotalIterations
	return res, trials
}

// laneReference is the Result at the given lane count in closed form.
// From the syndrome's one-lane DecodeAllTrials records (all, over trials),
// Schedule gives the winner and its step; each trial's record is then cut
// to the iterations whose (step, trial) pair comes no later than the
// winner's, one iteration at a time, and the winner's estimate is its own
// trial's.
func laneReference(g *tanner.Graph, probs []float64, cfg Config, s gf2.Vec, all Result, trials [][]int, lanes int) Result {
	res := all
	if !res.UsedPostProcessing {
		return res
	}
	steps, winner := Schedule(all.TrialIterations, all.TrialSuccess, lanes)
	res.Steps = res.InitIterations + steps
	res.TotalIterations = res.InitIterations
	res.WinningTrial = winner
	if winner >= 0 {
		_, trialCfg := trialConfigs(cfg)
		res.ErrHat = decodeTrial(g, probs, trialCfg, s, trials[winner]).ErrHat
	}
	iters := make([]int, len(trials))
	succ := make([]bool, len(trials))
	started := 0
	for k, n := range all.TrialIterations {
		base := 0
		for j := k % lanes; j < k; j += lanes {
			base += all.TrialIterations[j]
		}
		for i := 1; i <= n; i++ {
			if step := base + i; winner < 0 || step < steps || step == steps && k <= winner {
				iters[k] = i
			}
		}
		succ[k] = all.TrialSuccess[k] && iters[k] == n
		res.TotalIterations += iters[k]
		if iters[k] > 0 {
			started = k + 1
		}
	}
	if !cfg.DecodeAllTrials {
		res.TrialIterations, res.TrialSuccess = iters[:started], succ[:started]
	}
	return res
}

// fields renders every Result field except the stage times.
func fields(r Result) string {
	r.InitTime, r.PostTime = 0, 0
	sup := r.ErrHat.Support()
	r.ErrHat = gf2.Vec{}
	return fmt.Sprintf("%+v errHat=%v", r, sup)
}

// TestDecodeWorkerCounts pins the trial engine at every lane count on a
// heavier decodeMany corpus (about a third of it post-processed): at P
// lanes the Result equals laneReference field for field, with and without
// DecodeAllTrials, and one lane also equals the serial reference.
func TestDecodeWorkerCounts(t *testing.T) {
	const seed = 93
	c, probs, syndromes := bb154Corpus(t, 200, 9, seed)
	g := tanner.New(c.HZ)
	sampled := Config{
		Init:    bp.Config{MaxIter: 12},
		Trial:   bp.Config{MaxIter: 6},
		PhiSize: 8, WMax: 3, NS: 4, Policy: Sampled,
	}
	for _, base := range []struct {
		name string
		cfg  Config
	}{{"exhaustive", bb154Config}, {"sampled", sampled}} {
		allCfg := base.cfg
		allCfg.DecodeAllTrials = true
		records := make([]Result, len(syndromes))
		trials := make([][][]int, len(syndromes))
		post, wins := 0, 0
		for i, s := range syndromes {
			records[i], trials[i] = serialReference(g, probs, allCfg, s, seed+int64(i))
			if records[i].UsedPostProcessing {
				post++
			}
			if records[i].WinningTrial >= 0 {
				wins++
			}
		}
		if post == 0 || wins == 0 {
			t.Fatalf("%s: %d post-processed, %d trial wins; corpus too easy", base.name, post, wins)
		}
		for _, all := range []bool{false, true} {
			cfg := base.cfg
			cfg.DecodeAllTrials = all
			changed := 0
			for _, workers := range []int{1, 2, 4, 8} {
				cfg.Workers = workers
				d, err := New(c.HZ, probs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, s := range syndromes {
					name := fmt.Sprintf("%s all=%v workers=%d syndrome %d", base.name, all, workers, i)
					d.Reseed(seed + int64(i))
					r := d.Decode(s)
					got := fields(r)
					if want := fields(laneReference(g, probs, cfg, s, records[i], trials[i], workers)); got != want {
						t.Fatalf("%s: differs from the closed form\n got %s\nwant %s", name, got, want)
					}
					if workers == 1 {
						serial, _ := serialReference(g, probs, cfg, s, seed+int64(i))
						if want := fields(serial); got != want {
							t.Fatalf("%s: one lane differs from the serial reference\n got %s\nwant %s", name, got, want)
						}
					}
					if r.WinningTrial != records[i].WinningTrial {
						changed++
					}
				}
			}
			if changed == 0 {
				t.Fatalf("%s all=%v: every lane count kept the serial winner; the corpus does not tell the schedules apart", base.name, all)
			}
		}
	}
}

func TestDecodeSerialFlipBackInvariant(t *testing.T) {
	succ, post := decodeMany(t, 1, 90)
	if succ == 0 {
		t.Fatal("no successes at all")
	}
	if post == 0 {
		t.Fatal("post-processing never exercised (errors too easy)")
	}
}

func TestDecodeParallelFlipBackInvariant(t *testing.T) {
	succ, post := decodeMany(t, 4, 90)
	if succ == 0 {
		t.Fatal("no successes at all")
	}
	if post == 0 {
		t.Fatal("post-processing never exercised")
	}
}

func TestSerialAndParallelAgreeOnSuccess(t *testing.T) {
	// identical seeds ⇒ same syndromes; success sets should match
	// (specific error estimates may differ, both valid)
	s1, _ := decodeMany(t, 1, 91)
	s2, _ := decodeMany(t, 4, 91)
	diff := s1 - s2
	if diff < 0 {
		diff = -diff
	}
	// Exhaustive trials on same syndromes: identical trial sets, so success
	// counts must be identical.
	if diff != 0 {
		t.Fatalf("serial %d vs parallel %d successes", s1, s2)
	}
}

func TestDecodeAllTrialsRecordsEverything(t *testing.T) {
	c, err := codes.CoprimeBB154()
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, c.N)
	for i := range probs {
		probs[i] = 0.05
	}
	d, err := New(c.HZ, probs, Config{
		Init:            bp.Config{MaxIter: 8},
		Trial:           bp.Config{MaxIter: 40},
		PhiSize:         6,
		WMax:            1,
		Policy:          Exhaustive,
		DecodeAllTrials: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(92))
	sawPost := false
	for trial := 0; trial < 30; trial++ {
		e := gf2.NewVec(c.N)
		for k := 0; k < 5; k++ {
			e.Set(r.Intn(c.N), true)
		}
		res := d.Decode(c.SyndromeOfX(e))
		if res.UsedPostProcessing && res.Trials > 0 {
			sawPost = true
			if len(res.TrialIterations) != res.Trials {
				t.Fatalf("recorded %d trial iteration counts, want %d", len(res.TrialIterations), res.Trials)
			}
		}
	}
	if !sawPost {
		t.Fatal("post-processing never exercised")
	}
}

func TestDecodeEasySyndromeSkipsPostProcessing(t *testing.T) {
	c, err := codes.BB72()
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, c.N)
	for i := range probs {
		probs[i] = 0.01
	}
	d, err := New(c.HZ, probs, Config{
		Init:    bp.Config{MaxIter: 100},
		PhiSize: 4,
		WMax:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := gf2.VecFromSupport(c.N, []int{10})
	res := d.Decode(c.SyndromeOfX(e))
	if !res.Success || res.UsedPostProcessing {
		t.Fatalf("single error should decode in the initial attempt: %+v", res)
	}
	if res.WinningTrial != -1 || res.Trials != 0 {
		t.Fatal("no trials should be recorded")
	}
}

// TestSplitInitOneProcessor decodes with a four-lane decoder, built while
// GOMAXPROCS is 4 so that its initial BP splits into four parts (the bb144
// DEM has enough edges for five), after GOMAXPROCS has dropped to 1: the
// split must make progress, helpers or no, and the four lanes, more than
// there are processors, must still return laneReference's Result.
func TestSplitInitOneProcessor(t *testing.T) {
	const seed = 94
	css, err := codes.BB144()
	if err != nil {
		t.Fatal(err)
	}
	circ, err := memexp.Build(css, 2, memexp.Uniform())
	if err != nil {
		t.Fatal(err)
	}
	m, err := dem.Extract(circ)
	if err != nil {
		t.Fatal(err)
	}
	sampler := dem.NewSampler(m, 5e-3, seed)
	syndromes := make([]gf2.Vec, 8)
	for i := range syndromes {
		syn, _ := sampler.SampleShared()
		syndromes[i] = syn.Clone()
	}
	cfg := Config{
		Init:    bp.Config{MaxIter: 30},
		Trial:   bp.Config{MaxIter: 10},
		PhiSize: 6,
		WMax:    2,
		NS:      2,
		Policy:  Sampled,
	}
	g := tanner.New(m.H)
	allCfg := cfg
	allCfg.DecodeAllTrials = true
	want := make([]string, len(syndromes))
	trials := 0
	for i, s := range syndromes {
		all, ts := serialReference(g, sampler.Priors(), allCfg, s, seed+int64(i))
		want[i] = fields(laneReference(g, sampler.Priors(), cfg, s, all, ts, 4))
		trials += all.Trials
	}
	if trials == 0 {
		t.Fatal("no syndrome reached the trial stage")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	one, err := New(m.H, sampler.Priors(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	four, err := New(m.H, sampler.Priors(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if one.init.Parts() != 1 || four.init.Parts() != 4 {
		t.Fatalf("initial BP in %d and %d parts at GOMAXPROCS=4 with one and four lanes, want 1 and 4", one.init.Parts(), four.init.Parts())
	}

	runtime.GOMAXPROCS(1)
	done := make(chan error)
	go func() {
		for i, s := range syndromes {
			four.Reseed(seed + int64(i))
			if got := fields(four.Decode(s)); got != want[i] {
				done <- fmt.Errorf("syndrome %d: four lanes on one processor\n got %s\nwant %s", i, got, want[i])
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("four-lane decodes on one processor did not finish in 2 minutes")
	}
}

func TestSchedule(t *testing.T) {
	for _, tc := range []struct {
		iters         []int
		success       []bool
		lanes         int
		steps, winner int
	}{
		// one lane: the first success, after every earlier trial
		{[]int{6, 6, 3, 6, 2}, []bool{false, false, true, false, true}, 1, 15, 2},
		// lane 0 takes trials 0, 2, 4 and wins with trial 2 at 6+3
		{[]int{6, 6, 3, 6, 2}, []bool{false, false, true, false, true}, 2, 9, 2},
		// trial 4 (lane 1) at 6+2 loses to trial 2 (lane 2) at 3
		{[]int{6, 6, 3, 6, 2}, []bool{false, false, true, false, true}, 3, 3, 2},
		// a later trial wins when it succeeds at an earlier step
		{[]int{6, 3, 6, 6, 1}, []bool{false, true, false, false, true}, 4, 3, 1},
		{[]int{6, 3, 6, 6, 1}, []bool{false, true, false, false, true}, 5, 1, 4},
		// equal steps: the lower trial wins
		{[]int{3, 3}, []bool{true, true}, 2, 3, 0},
		// no success: the longest lane
		{[]int{6, 6, 6}, nil, 2, 12, -1},
		{[]int{6, 6, 6}, nil, 0, 18, -1},
		{nil, nil, 4, 0, -1},
	} {
		steps, winner := Schedule(tc.iters, tc.success, tc.lanes)
		if steps != tc.steps || winner != tc.winner {
			t.Errorf("Schedule(%v, %v, %d) = %d, %d, want %d, %d", tc.iters, tc.success, tc.lanes, steps, winner, tc.steps, tc.winner)
		}
	}
}
