// Package experiments defines one reproduction harness per table and
// figure of the paper's evaluation (the experiment index in DESIGN.md §2).
// Each harness builds the exact workload — code, noise model, decoder
// grid — runs the Monte-Carlo or latency measurement, prints the rows the
// paper reports, and returns the figure's series for CSV export.
//
// Every harness has two scales: the default "quick" parameters keep the
// whole suite runnable in minutes (fewer shots, reduced rounds for the
// largest codes); Opts.Full switches to the paper-scale grids. DESIGN.md §2
// indexes the experiments and records scale reductions.
//
// Sweeps are parallel at two levels: grid cells (decoder × error rate) run
// concurrently, and each cell's shots run on the sharded sim engine. Both
// levels are deterministic — results are bit-identical for any Opts.Workers
// value.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"bpsf/internal/code"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/memexp"
	"bpsf/internal/osd"
	"bpsf/internal/sim"
	"bpsf/internal/window"
)

// Opts controls the scale of a harness run.
type Opts struct {
	// Shots is the per-point sample count (0 = figure default).
	Shots int
	// Seed seeds all samplers.
	Seed int64
	// Full selects paper-scale rounds and error-rate grids.
	Full bool
	// Out receives the printed tables (nil = discard).
	Out io.Writer
	// Workers is the total parallelism budget, shared between concurrent
	// grid cells and the sharded Monte-Carlo engine inside each cell
	// (0 = runtime.NumCPU()). Results are bit-identical for any value.
	Workers int
	// Decoder restricts decoder-grid sweeps to one registered kind (the
	// bpsf-figs -decoder flag): "" keeps each figure's full grid, a kind
	// name keeps its entries of that kind (windowed wrappers match their
	// inner kind; "windowed" keeps exactly the windowed entries). Harnesses
	// without a decoder grid ignore it.
	Decoder string
}

func (o Opts) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

func (o Opts) shots(def int) int {
	if o.Shots > 0 {
		return o.Shots
	}
	return def
}

func (o Opts) seed() int64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 20260608
}

func (o Opts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// PointStat pins one grid point's Monte-Carlo counts; golden regression
// tests compare these across refactors and worker counts.
type PointStat struct {
	Decoder  string
	P        float64
	Shots    int
	Failures int
}

// FigureResult is a harness's exportable output.
type FigureResult struct {
	// Name identifies the experiment ("fig07", "table1", ...).
	Name string
	// Series holds the figure's curves (x = physical error rate unless
	// noted).
	Series []sim.Series
	// Rows holds the per-grid-point counts for sweeps (deterministic
	// order: decoder-major, error-rate-minor).
	Rows []PointStat
	// Notes records scale reductions relative to the paper.
	Notes string
}

// ---- decoder grid helpers ----

// Windowed wraps a spec in the sliding-window scheduler: windows of w
// rounds committing c, sliced by layout.
func Windowed(inner sim.Spec, w, c int, layout window.Layout) sim.Spec {
	inner.Window, inner.Commit, inner.Layout = w, c, layout
	return inner
}

// MatchesKind reports whether the spec survives an Opts.Decoder filter.
func MatchesKind(s sim.Spec, name string) bool {
	if name == "windowed" {
		return s.Window > 0
	}
	return s.Kind == name
}

// BPSpec is a plain-BP decoder entry.
func BPSpec(iters int) sim.Spec { return sim.Spec{Kind: "bp", BPIters: iters} }

// UFSpec is the union-find decoder entry (no tuning parameters).
func UFSpec() sim.Spec { return sim.Spec{Kind: "uf"} }

// BPOSDSpec is the BP-OSD baseline entry (OSD-CS of the given order).
func BPOSDSpec(iters, order int) sim.Spec {
	return sim.Spec{Kind: "bposd", BPIters: iters, OSDOrder: order}
}

// BPOSD0Spec is the BP-OSD baseline with order-0 post-processing
// ("BP1000-OSD0").
func BPOSD0Spec(iters int) sim.Spec {
	return sim.Spec{Kind: "bposd", BPIters: iters, OSDMethod: osd.OSD0}
}

// BPSFCapacitySpec is the paper's code-capacity BP-SF configuration
// (exhaustive trials).
func BPSFCapacitySpec(iters, phi, wMax int) sim.Spec {
	return sim.Spec{Kind: "bpsf", BPIters: iters, Phi: phi, WMax: wMax}
}

// BPSFCircuitSpec is the paper's circuit-level BP-SF configuration
// (ns sampled trials per weight).
func BPSFCircuitSpec(iters, phi, wMax, ns int) sim.Spec {
	return sim.Spec{Kind: "bpsf", BPIters: iters, Phi: phi, WMax: wMax, NS: ns}
}

// ---- DEM cache ----

// demEntry is a singleflight cache slot: concurrent grid cells asking for
// the same DEM share one memexp.Build + dem.Extract.
type demEntry struct {
	once sync.Once
	d    *dem.DEM
	err  error
}

var demCache sync.Map // key string → *demEntry

// CachedDEM builds (or reuses) the memory-experiment DEM for a catalog
// code at the given round count. Safe for concurrent use; parallel callers
// of the same key block on a single build.
func CachedDEM(codeName string, rounds int) (*dem.DEM, *code.CSS, error) {
	css, err := codes.Get(codeName)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%s/%d", codeName, rounds)
	v, _ := demCache.LoadOrStore(key, &demEntry{})
	e := v.(*demEntry)
	e.once.Do(func() {
		circ, err := memexp.Build(css, rounds, memexp.Uniform())
		if err != nil {
			e.err = err
			return
		}
		e.d, e.err = dem.Extract(circ)
	})
	return e.d, css, e.err
}

// roundsFor returns the experiment's round count: the paper's d rounds in
// Full mode, or the reduced quick-mode count.
func roundsFor(codeName string, quick int, o Opts) int {
	if o.Full {
		return codes.Catalog()[codeName].Rounds
	}
	return quick
}

// ---- shared sweep runners ----

// sweepGrid runs the (spec × p) grid with cell-level parallelism: every
// cell gets its own decoder and sampler (seeds depend only on the grid
// position), so the cells are independent and their results are collected
// into a deterministically ordered slice regardless of scheduling.
func sweepGrid(specs []sim.Spec, ps []float64, o Opts,
	runCell func(spec sim.Spec, pi int, workers int) (*sim.Result, error)) ([]*sim.Result, error) {
	mcs := make([]*sim.Result, len(specs)*len(ps))
	cellWorkers, simWorkers := splitWorkers(o.workers(), len(mcs))
	err := parallelFor(len(mcs), cellWorkers, func(i int) error {
		mc, err := runCell(specs[i/len(ps)], i%len(ps), simWorkers)
		mcs[i] = mc
		return err
	})
	return mcs, err
}

// filterSpecs applies the Opts.Decoder restriction to a sweep's decoder
// grid; an empty result is an error so a typo'd or inapplicable filter
// cannot silently produce an empty figure.
func (o Opts) filterSpecs(specs []sim.Spec) ([]sim.Spec, error) {
	if o.Decoder == "" {
		return specs, nil
	}
	var out []sim.Spec
	for _, s := range specs {
		if MatchesKind(s, o.Decoder) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: -decoder %s matches no decoder in this grid", o.Decoder)
	}
	return out, nil
}

// capacitySweep runs a decoder grid over a code-capacity error-rate grid.
func capacitySweep(name string, css *code.CSS, specs []sim.Spec, ps []float64, shots int, o Opts) (FigureResult, error) {
	res := FigureResult{Name: name}
	specs, err := o.filterSpecs(specs)
	if err != nil {
		return res, err
	}
	mcs, err := sweepGrid(specs, ps, o, func(spec sim.Spec, pi int, workers int) (*sim.Result, error) {
		return sim.RunCapacity(css, spec.NewDecoder, sim.Config{
			P: ps[pi], Shots: shots, Seed: o.seed() + int64(pi)*1000, Workers: workers,
		})
	})
	if err != nil {
		return res, err
	}
	tb := sim.NewTable("decoder", "p", "shots", "failures", "LER", "95% interval", "avg iters")
	for si, spec := range specs {
		series := sim.Series{Label: spec.String()}
		for pi, p := range ps {
			mc := mcs[si*len(ps)+pi]
			series.AddWithBounds(p, mc.LER, mc.LERLow, mc.LERHigh)
			tb.Row(spec.String(), p, mc.Shots, mc.Failures, mc.LER,
				fmt.Sprintf("[%.2g,%.2g]", mc.LERLow, mc.LERHigh), mc.AvgIters)
			res.Rows = append(res.Rows, PointStat{
				Decoder: spec.String(), P: p, Shots: mc.Shots, Failures: mc.Failures,
			})
		}
		res.Series = append(res.Series, series)
	}
	fmt.Fprintf(o.out(), "== %s: %s (code capacity) ==\n", name, css.Name)
	if err := tb.Write(o.out()); err != nil {
		return res, err
	}
	return res, nil
}

// circuitSweep runs a decoder grid over a circuit-level error-rate grid.
func circuitSweep(name, codeName string, quickRounds int, specs []sim.Spec, ps []float64, shots int, o Opts) (FigureResult, error) {
	rounds := roundsFor(codeName, quickRounds, o)
	d, css, err := CachedDEM(codeName, rounds)
	if err != nil {
		return FigureResult{Name: name}, err
	}
	res := FigureResult{
		Name:  name,
		Notes: fmt.Sprintf("rounds=%d (paper: %d), mechanisms=%d", rounds, codes.Catalog()[codeName].Rounds, d.NumMechs()),
	}
	if specs, err = o.filterSpecs(specs); err != nil {
		return res, err
	}
	mcs, err := sweepGrid(specs, ps, o, func(spec sim.Spec, pi int, workers int) (*sim.Result, error) {
		return sim.RunCircuit(d, rounds, spec.NewDecoder, sim.Config{
			P: ps[pi], Shots: shots, Seed: o.seed() + int64(pi)*1000, Workers: workers,
		})
	})
	if err != nil {
		return res, err
	}
	tb := sim.NewTable("decoder", "p", "shots", "failures", "LER/round", "95% int (block)", "avg iters", "avg ms")
	for si, spec := range specs {
		series := sim.Series{Label: spec.String()}
		for pi, p := range ps {
			mc := mcs[si*len(ps)+pi]
			series.AddWithBounds(p, mc.LERRound,
				sim.LERPerRound(mc.LERLow, rounds), sim.LERPerRound(mc.LERHigh, rounds))
			tb.Row(spec.String(), p, mc.Shots, mc.Failures, mc.LERRound,
				fmt.Sprintf("[%.2g,%.2g]", mc.LERLow, mc.LERHigh), mc.AvgIters,
				float64(mc.AvgTime.Microseconds())/1000.0)
			res.Rows = append(res.Rows, PointStat{
				Decoder: spec.String(), P: p, Shots: mc.Shots, Failures: mc.Failures,
			})
		}
		res.Series = append(res.Series, series)
	}
	fmt.Fprintf(o.out(), "== %s: %s circuit-level, %d rounds ==\n", name, css.Name, rounds)
	if err := tb.Write(o.out()); err != nil {
		return res, err
	}
	return res, nil
}
