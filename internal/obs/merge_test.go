package obs

import (
	"reflect"
	"testing"
	"time"
)

// TestMergeHistMatchesSingle pins the fleet-aggregation invariant: merging
// the snapshots of two histograms equals the snapshot of one histogram
// that observed both sample sets.
func TestMergeHistMatchesSingle(t *testing.T) {
	setA := []time.Duration{0, 3 * time.Microsecond, 900 * time.Nanosecond, 2 * time.Millisecond}
	setB := []time.Duration{time.Microsecond, 40 * time.Millisecond, 7 * time.Nanosecond}

	var ha, hb, both HistData
	for _, d := range setA {
		ha.Observe(d)
		both.Observe(d)
	}
	for _, d := range setB {
		hb.Observe(d)
		both.Observe(d)
	}
	got := MergeHist(ha.Snapshot(), hb.Snapshot())
	if want := both.Snapshot(); got != want {
		t.Fatalf("merged snapshot diverges from single histogram:\n got %+v\nwant %+v", got, want)
	}
}

func TestMergeHistEmptyIsIdentity(t *testing.T) {
	var h HistData
	h.Observe(5 * time.Microsecond)
	h.Observe(9 * time.Millisecond)
	snap := h.Snapshot()
	if got := MergeHist(snap, HistSnapshot{}); got != snap {
		t.Fatalf("merge with empty right changed the snapshot: %+v", got)
	}
	if got := MergeHist(HistSnapshot{}, snap); got != snap {
		t.Fatalf("merge with empty left changed the snapshot: %+v", got)
	}
	if got := MergeHist(HistSnapshot{}, HistSnapshot{}); got != (HistSnapshot{}) {
		t.Fatalf("merge of empties is non-empty: %+v", got)
	}
}

func TestMergeStagesMatchesSingle(t *testing.T) {
	mk := func(ds ...time.Duration) StageSnapshot {
		var ss StageSet
		for _, d := range ds {
			var sp Span
			t0 := time.Unix(0, 0)
			sp.Begin(t0)
			sp.Mark(StageAdmit, t0.Add(d))
			sp.Mark(StageWrite, t0.Add(2*d))
			ss.Record(&sp)
		}
		return ss.Snapshot()
	}
	a := mk(time.Microsecond, 3*time.Millisecond)
	b := mk(40 * time.Microsecond)
	want := mk(time.Microsecond, 3*time.Millisecond, 40*time.Microsecond)
	if got := MergeStages(a, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged stages diverge:\n got %+v\nwant %+v", got, want)
	}

	// Two full trace sets interleave: the merge keeps the traceSlots
	// slowest of both, slowest first, as one set recording every span does.
	var even, odd, all []time.Duration
	for i := 1; i <= 2*traceSlots; i++ {
		d := time.Duration(i) * time.Millisecond
		if i%2 == 0 {
			even = append(even, d)
		} else {
			odd = append(odd, d)
		}
		all = append(all, d)
	}
	got, want := MergeStages(mk(even...), mk(odd...)), mk(all...)
	if len(got.Traces) != traceSlots || got.Traces[0].Total != 4*time.Duration(traceSlots)*time.Millisecond {
		t.Fatalf("merged %d traces, slowest %v; want %d, slowest %v",
			len(got.Traces), got.Traces[0].Total, traceSlots, want.Traces[0].Total)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged full trace sets diverge:\n got %+v\nwant %+v", got.Traces, want.Traces)
	}
}

func TestLabel(t *testing.T) {
	cases := []struct {
		name, key, value, want string
	}{
		{"bpsf_backend_up", "backend", "b0", `bpsf_backend_up{backend="b0"}`},
		{`x_total{pool="a"}`, "backend", "b1", `x_total{pool="a",backend="b1"}`},
		{"m", "k", `we"ird`, `m{k="we\"ird"}`},
	}
	for _, c := range cases {
		if got := Label(c.name, c.key, c.value); got != c.want {
			t.Errorf("Label(%q,%q,%q) = %q, want %q", c.name, c.key, c.value, got, c.want)
		}
	}
}
