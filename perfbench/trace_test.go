package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: the union counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // only [90,100) lies inside root
		{Name: "a1", Start: 12, End: 18, Parent: 1},
		{Name: "other", Start: 0, End: 7, Parent: -1},
	}
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	by := layerSelf(spans)
	if by["a"] != 14 || by["root"] != 50 {
		t.Errorf("layerSelf = %v", by)
	}
}

func TestSelfTimesTileNestedDurations(t *testing.T) {
	// a decode tree whose stages sit inside their parent without overlap:
	// the self times add up to the root's duration exactly
	spans := []span{
		{Name: "bposd.Decode", Start: 1000, End: 5000, Parent: -1},
		{Name: "bp.Decode", Start: 1000, End: 3000, Parent: 0},
		{Name: "osd.Decode", Start: 3100, End: 4900, Parent: 0},
	}
	var total int64
	for _, s := range selfTimes(spans) {
		total += s
	}
	if total != 4000 {
		t.Fatalf("self times sum to %d, want the root's 4000", total)
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	now := time.Now()
	if tr.add("x", -1, 0, now, now) != -1 || tr.count() != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

func TestTracerKeepsParentLinks(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.add("root", -1, 7, t0, t0.Add(10))
	child := tr.add("child", root, 7, t0.Add(2), t0.Add(5))
	sp := tr.snapshot()
	if len(sp) != 2 || sp[child].Parent != root || sp[child].Start != 2 || sp[child].End != 5 || sp[root].Req != 7 {
		t.Fatalf("spans = %+v", sp)
	}
}
