package experiments

import (
	"testing"

	"bpsf/internal/sim"
	"bpsf/internal/window"
)

// TestFilterSpecs covers the Opts.Decoder grid restriction: kind names
// keep bare and windowed entries of that kind, "windowed" keeps exactly
// the windowed wrappers, and a filter that empties the grid errors instead
// of producing an empty figure.
func TestFilterSpecs(t *testing.T) {
	layout := window.RowRounds(8)
	grid := []sim.Spec{
		UFSpec(),
		Windowed(UFSpec(), 3, 1, layout),
		BPOSDSpec(100, 5),
		Windowed(BPOSDSpec(100, 5), 2, 1, layout),
	}
	labels := func(specs []sim.Spec) []string {
		var out []string
		for _, s := range specs {
			out = append(out, s.String())
		}
		return out
	}

	cases := []struct {
		filter string
		want   []string
		err    bool
	}{
		{"", []string{"UF", "W3C1[UF]", "BP100-OSD5", "W2C1[BP100-OSD5]"}, false},
		{"uf", []string{"UF", "W3C1[UF]"}, false},
		{"bposd", []string{"BP100-OSD5", "W2C1[BP100-OSD5]"}, false},
		{"windowed", []string{"W3C1[UF]", "W2C1[BP100-OSD5]"}, false},
		{"bpsf", nil, true},
	}
	for _, tc := range cases {
		got, err := Opts{Decoder: tc.filter}.filterSpecs(grid)
		if tc.err {
			if err == nil {
				t.Errorf("filter %q: expected error, got %v", tc.filter, labels(got))
			}
			continue
		}
		if err != nil {
			t.Fatalf("filter %q: %v", tc.filter, err)
		}
		gl := labels(got)
		if len(gl) != len(tc.want) {
			t.Fatalf("filter %q: got %v, want %v", tc.filter, gl, tc.want)
		}
		for i := range gl {
			if gl[i] != tc.want[i] {
				t.Errorf("filter %q: got %v, want %v", tc.filter, gl, tc.want)
				break
			}
		}
	}
}
