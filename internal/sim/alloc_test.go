package sim

import (
	"runtime"
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

// TestDecoderBuildCopiesNoAdjacency holds the bytes that building a
// BP-family decoder on the bb144 r2 DEM allocates to its message and
// per-variable buffers: every BP workspace reads the DEM's matrix in
// place. A BP workspace is one float32 message per edge and 36¼ bytes per
// variable (three float32 and three 8-byte arrays, two bit vectors). BP-OSD
// adds OSD's three int orderings; BP-SF with one lane holds two
// workspaces, the initial BP's and the lane's. Size classes round
// allocations up by less than an eighth, which the bound allows. A decoder
// that copied the Tanner graph would allocate 12 bytes more per edge than
// that, beyond the bound. Skipped under race and coverage instrumentation,
// which allocate on their own.
func TestDecoderBuildCopiesNoAdjacency(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation bytes are skewed under race/coverage instrumentation")
	}
	css, err := codes.Get("bb144")
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
	priors := d.Priors(3e-3)
	e, n := d.H.NNZ(), d.H.Cols()
	workspace := 4*e + 37*n
	for _, tc := range []struct {
		kind    string
		buffers int // bytes of the decoder's buffers
	}{
		{"bp", workspace},
		{"bposd", workspace + 25*n},
		{"bpsf", 2 * workspace},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			bound := tc.buffers + tc.buffers/8
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			dec, err := DecoderSpecs()[tc.kind].NewDecoder(d.H, priors)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(dec)
			got := int(after.TotalAlloc - before.TotalAlloc)
			t.Logf("%d edges, %d variables: %d bytes allocated, bound %d", e, n, got, bound)
			if got > bound {
				t.Errorf("building the decoder allocated %d bytes, above the %d its buffers need", got, bound)
			}
		})
	}
}
