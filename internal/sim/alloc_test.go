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

// TestDecoderAllocCeilings gates the steady-state heap allocations of
// every registered decoder kind on circuit-level DEMs at p = 3e-3, plus
// windowed W3C1 over the memory-experiment layout: the ceiling is exactly
// 0 for every row. After one warm-up sweep over 16 sampled syndromes, a
// whole sweep must allocate nothing, so even one allocation on one shot
// fails.
func TestDecoderAllocCeilings(t *testing.T) {
	const p = 3e-3
	models := []struct {
		code   string
		rounds int
		// memexp adds W3C1 windows sliced by window.MemexpLayout.
		memexp bool
	}{
		{"rsurf5", 5, true},
		{"bb72", 2, false},
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
				if got := allocsPerSweep(dec, syns); got != 0 {
					t.Errorf("%.0f allocs per warm sweep of %d shots, want exactly 0", got, len(syns))
				}
			})
		}
	}
}

// allocsPerSweep runs one warm-up sweep over syns, then returns the
// allocations of a whole sweep.
func allocsPerSweep(dec Decoder, syns []gf2.Vec) float64 {
	sweep := func() {
		for _, syn := range syns {
			dec.Decode(syn)
		}
	}
	sweep()
	return testing.AllocsPerRun(3, sweep)
}
