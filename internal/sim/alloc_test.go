package sim

import (
	"sort"
	"testing"

	"bpsf/internal/codes"
	"bpsf/internal/decoding"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/window"
)

// TestDecoderAllocCeilings gates the steady-state heap allocations per
// decode of every registered decoder kind on circuit-level DEMs at
// p = 3e-3, plus windowed W3C1 over the memory-experiment layout. Each
// ceiling is the count measured when it was set: any rise fails, and the
// rows at 0 must stay exactly 0. A fall is logged so the ceiling can be
// lowered.
func TestDecoderAllocCeilings(t *testing.T) {
	const p = 3e-3
	models := []struct {
		code   string
		rounds int
		// memexp adds W3C1 windows sliced by window.MemexpLayout.
		memexp   bool
		ceilings map[string]int // registry name or "memexp/<label>" → allocs per shot
	}{
		{"rsurf5", 5, true, map[string]int{
			"bp": 0, "bposd": 116, "bpsf": 0, "uf": 0, "windowed": 90,
			"memexp/W3C1[UF]": 4, "memexp/W3C1[BP100-OSD5]": 240,
		}},
		{"bb72", 2, false, map[string]int{
			"bp": 0, "bposd": 1091, "bpsf": 0, "uf": 0, "windowed": 357,
		}},
	}
	for _, m := range models {
		css, err := codes.Get(m.code)
		if err != nil {
			t.Fatal(err)
		}
		circ, err := memexp.Build(css, m.rounds, memexp.Uniform())
		if err != nil {
			t.Fatal(err)
		}
		d, err := dem.Extract(circ)
		if err != nil {
			t.Fatal(err)
		}

		specs := DecoderSpecs()
		if m.memexp {
			for _, inner := range []Spec{{Kind: "uf"}, {Kind: "bposd", BPIters: 100, OSDOrder: 5}} {
				w := inner
				w.Window, w.Commit, w.Layout = 3, 1, window.MemexpLayout(css, m.rounds)
				specs["memexp/"+w.String()] = w
			}
		}
		names := make([]string, 0, len(specs))
		for name := range specs {
			names = append(names, name)
			if _, ok := m.ceilings[name]; !ok {
				t.Errorf("%s: no allocation ceiling for %s", m.code, name)
			}
		}
		sort.Strings(names)

		sampler := dem.NewSampler(d, p, 1)
		syns := make([]gf2.Vec, 16)
		for i := range syns {
			syn, _ := sampler.SampleShared()
			syns[i] = syn.Clone()
		}
		priors := d.Priors(p)
		for _, name := range names {
			t.Run(m.code+"/"+name, func(t *testing.T) {
				dec, err := specs[name].NewDecoder(d.H, priors)
				if err != nil {
					t.Fatal(err)
				}
				decoding.Reseed(dec, 1)
				got, ceiling := allocsPerShot(dec, syns), m.ceilings[name]
				switch {
				case got > ceiling:
					t.Errorf("%d allocs per shot, ceiling %d", got, ceiling)
				case got < ceiling:
					t.Logf("%d allocs per shot, below the ceiling %d: lower it", got, ceiling)
				}
			})
		}
	}
}

// allocsPerShot runs one warm-up sweep over syns, then counts the
// allocations of whole sweeps, floored to an integer per shot. Whole
// sweeps keep the input mix fixed; the floor absorbs the one or two
// allocations by which a BP-OSD sweep varies from run to run, which
// per-decode counts do not. The result was the same at 1, 3 and 10
// measured sweeps.
func allocsPerShot(dec Decoder, syns []gf2.Vec) int {
	sweep := func() {
		for _, syn := range syns {
			dec.Decode(syn)
		}
	}
	sweep()
	return int(testing.AllocsPerRun(3, sweep)) / len(syns)
}
