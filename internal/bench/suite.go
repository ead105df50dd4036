package bench

import (
	"fmt"
	"time"

	"bpsf/internal/circuit"
	"bpsf/internal/codes"
	"bpsf/internal/decoding"
	"bpsf/internal/dem"
	"bpsf/internal/frame"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/service"
	"bpsf/internal/sim"
	"bpsf/internal/window"
)

// Config selects the suite depth. The workload set is identical in both
// modes — smoke only shortens per-workload measurement time and service
// shot counts, so a smoke run compares against a full-depth baseline
// (inside the tolerance bands).
type Config struct {
	// Smoke selects the CI-depth run.
	Smoke bool
	// Seed drives every sampler and decoder reseed in the suite.
	Seed int64
}

func (c Config) minTime() time.Duration {
	if c.Smoke {
		// Long enough that the light kernels average tens of pool
		// sweeps — a 5 ms floor measures ~1 sweep and single-sweep
		// timing noise on a loaded CI runner exceeds the tolerance
		// band. The heavy kernels exceed any floor in one sweep, so
		// this costs smoke runs almost nothing.
		return 50 * time.Millisecond
	}
	return 200 * time.Millisecond
}

func (c Config) serviceShots(p Profile) int {
	if c.Smoke && p.SmokeShots > 0 {
		return p.SmokeShots
	}
	return p.Shots
}

// Areas returns the pinned area names in run order; each produces one
// BENCH_<area>.json.
func Areas() []string {
	return []string{"sampler", "decode", "window", "service", "fleet"}
}

// Run measures one area.
func Run(area string, cfg Config) (*Report, error) {
	switch area {
	case "sampler":
		return RunSampler(cfg)
	case "decode":
		return RunDecode(cfg)
	case "window":
		return RunWindow(cfg)
	case "service":
		return RunService(cfg, ServiceProfiles())
	case "fleet":
		return RunFleet(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown area %q (areas: %v)", area, Areas())
	}
}

// buildModel constructs the circuit-level memory experiment and its DEM
// for a catalog code.
func buildModel(codeName string, rounds int) (*circuit.Circuit, *dem.DEM, error) {
	entry, ok := codes.Catalog()[codeName]
	if !ok {
		return nil, nil, fmt.Errorf("bench: unknown code %q", codeName)
	}
	if rounds == 0 {
		rounds = entry.Rounds
	}
	css, err := entry.Build()
	if err != nil {
		return nil, nil, err
	}
	circ, err := memexp.Build(css, rounds, memexp.Uniform())
	if err != nil {
		return nil, nil, err
	}
	d, err := dem.Extract(circ)
	if err != nil {
		return nil, nil, err
	}
	return circ, d, nil
}

// RunSampler measures syndrome generation on the 5-round rsurf5 memory
// experiment — the batch (64-shot word-parallel) vs scalar samplers, in
// both circuit and DEM modes, reported per shot. These four entries pin
// PR 5's ~16× batch-sampler claim into the trajectory.
func RunSampler(cfg Config) (*Report, error) {
	const codeName, p = "rsurf5", 3e-3
	circ, d, err := buildModel(codeName, 0)
	if err != nil {
		return nil, err
	}
	rep := NewReport("sampler")
	mt := cfg.minTime()

	batchCur := frame.NewCursor(frame.NewCircuitSampler(circ, p, cfg.Seed).SampleBlock)
	rep.AddMeasurement("sampler/"+codeName+"/circuit-batch", Measure(mt, func(n int) {
		for i := 0; i < n; i++ {
			batchCur.Next()
		}
	}))
	scalar := frame.NewScalarSampler(circ, p, cfg.Seed)
	rep.AddMeasurement("sampler/"+codeName+"/circuit-scalar", Measure(mt, func(n int) {
		for i := 0; i < n; i++ {
			scalar.SampleShared()
		}
	}))
	demCur := frame.NewCursor(frame.NewDEMSampler(d, p, cfg.Seed).SampleBlock)
	rep.AddMeasurement("sampler/"+codeName+"/dem-batch", Measure(mt, func(n int) {
		for i := 0; i < n; i++ {
			demCur.Next()
		}
	}))
	demScalar := dem.NewSampler(d, p, cfg.Seed)
	rep.AddMeasurement("sampler/"+codeName+"/dem-scalar", Measure(mt, func(n int) {
		for i := 0; i < n; i++ {
			demScalar.SampleShared()
		}
	}))
	return rep, nil
}

// sampleSyndromes pre-draws a fixed pool of syndromes so decode
// measurements exercise the kernel, not the sampler.
func sampleSyndromes(d *dem.DEM, p float64, seed int64, count int) []gf2.Vec {
	sampler := dem.NewSampler(d, p, seed)
	syns := make([]gf2.Vec, count)
	for i := range syns {
		syn, _ := sampler.SampleShared()
		syns[i] = syn.Clone()
	}
	return syns
}

// RunDecode measures every registered decoder kernel (sim.DecoderSpecs:
// bp, bposd, bpsf, uf, windowed) on the circuit-level rsurf5 and bb72
// DEMs at p=3e-3, per decode. Each measured op sweeps the whole 64-shot
// syndrome pool (MeasureShots) so the mix — and the exact-fail
// allocation entries, which pin the zero-alloc steady-state discipline
// — is the same at any depth.
func RunDecode(cfg Config) (*Report, error) {
	rep := NewReport("decode")
	mt := cfg.minTime()
	const p = 3e-3
	for _, codeName := range []string{"rsurf5", "bb72"} {
		_, d, err := buildModel(codeName, 0)
		if err != nil {
			return nil, err
		}
		priors := d.Priors(p)
		syns := sampleSyndromes(d, p, cfg.Seed, 64)
		for _, name := range sim.DecoderNames() {
			dec, err := sim.DecoderSpecs()[name].NewDecoder(d.H, priors)
			if err != nil {
				return nil, fmt.Errorf("bench: decode/%s/%s: %w", codeName, name, err)
			}
			if r, ok := dec.(decoding.Reseeder); ok {
				r.Reseed(cfg.Seed)
			}
			rep.AddMeasurement(fmt.Sprintf("decode/%s/%s", codeName, name), MeasureShots(mt, len(syns), func(n int) {
				for i := 0; i < n; i++ {
					for _, syn := range syns {
						dec.Decode(syn)
					}
				}
			}))
		}
	}
	return rep, nil
}

// RunWindow measures windowed (W=3, C=1, memory-experiment layout)
// against whole-history decoding on the 5-round rsurf5 DEM for the UF
// and BP-OSD inner kernels — the streaming-overhead trajectory.
func RunWindow(cfg Config) (*Report, error) {
	const codeName, rounds, p = "rsurf5", 5, 3e-3
	entry := codes.Catalog()[codeName]
	css, err := entry.Build()
	if err != nil {
		return nil, err
	}
	circ, err := memexp.Build(css, rounds, memexp.Uniform())
	if err != nil {
		return nil, err
	}
	d, err := dem.Extract(circ)
	if err != nil {
		return nil, err
	}
	priors := d.Priors(p)
	layout := window.MemexpLayout(css, rounds)
	syns := sampleSyndromes(d, p, cfg.Seed, 64)

	rep := NewReport("window")
	mt := cfg.minTime()
	inners := []struct {
		name string
		spec service.Spec
	}{
		{"uf", service.Spec{Kind: "uf"}},
		{"bposd", service.Spec{Kind: "bposd", BPIters: 100, OSDOrder: 5}},
	}
	for _, inner := range inners {
		wd, err := window.New(d.H, priors, layout, 3, 1, inner.spec.NewDecoder)
		if err != nil {
			return nil, err
		}
		wd.Reseed(cfg.Seed)
		rep.AddMeasurement(fmt.Sprintf("window/%s/W3C1/%s", codeName, inner.name), MeasureShots(mt, len(syns), func(n int) {
			for i := 0; i < n; i++ {
				for _, syn := range syns {
					wd.Decode(syn)
				}
			}
		}))
		whole, err := inner.spec.NewDecoder(d.H, priors)
		if err != nil {
			return nil, err
		}
		if r, ok := whole.(decoding.Reseeder); ok {
			r.Reseed(cfg.Seed)
		}
		rep.AddMeasurement(fmt.Sprintf("window/%s/whole/%s", codeName, inner.name), MeasureShots(mt, len(syns), func(n int) {
			for i := 0; i < n; i++ {
				for _, syn := range syns {
					whole.Decode(syn)
				}
			}
		}))
	}
	return rep, nil
}

// RunService measures the decode service end to end for the named
// batch-plane workload profiles: an in-process loopback server (pinned
// PoolSize 2, so the entry is comparable across hosts of different
// widths) driven by the same load generator bpsf-load uses, reporting
// throughput and server-side p50/p99 service latency per profile.
func RunService(cfg Config, names []string) (*Report, error) {
	rep := NewReport("service")
	for _, name := range names {
		prof, err := GetProfile(name)
		if err != nil {
			return nil, err
		}
		if prof.Window > 0 {
			return nil, fmt.Errorf("bench: profile %q is a streaming profile; the service area measures batch-plane profiles", name)
		}
		srv := service.NewServer(service.Options{PoolSize: 2})
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		lc := prof.LoadConfig(cfg.Seed, 0)
		lc.Shots = cfg.serviceShots(prof)
		res, err := service.DriveLoad(srv.Addr().String(), lc)
		srv.Drain(10 * time.Second)
		if err != nil {
			return nil, fmt.Errorf("bench: service/%s: %w", name, err)
		}
		lat := sim.Summarize(res.ServerLat)
		w := "service/" + name
		rep.Add(w, MetricShotsPerSec, res.Throughput(), res.Decoded)
		rep.Add(w, MetricP50Ns, float64(lat.P50.Nanoseconds()), lat.N)
		rep.Add(w, MetricP99Ns, float64(lat.P99.Nanoseconds()), lat.N)
	}
	return rep, nil
}
