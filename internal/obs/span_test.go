package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestSpanStagesTileTotal pins the span invariant the reconciliation
// tests lean on: the stage durations sum exactly to Begin → last mark,
// skipped stages read zero, and a StageSet records one observation per
// stage per span so every stage histogram's count equals the recorded
// request count.
func TestSpanStagesTileTotal(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var sp Span
	sp.Begin(t0)
	sp.Mark(StageAdmit, t0.Add(1*time.Millisecond))
	sp.Mark(StageQueue, t0.Add(4*time.Millisecond))
	// coalesce skipped
	sp.Mark(StageDecode, t0.Add(9*time.Millisecond))
	sp.Mark(StageWrite, t0.Add(10*time.Millisecond))

	want := map[Stage]time.Duration{
		StageAdmit:    1 * time.Millisecond,
		StageQueue:    3 * time.Millisecond,
		StageCoalesce: 0,
		StageDecode:   5 * time.Millisecond,
		StageWrite:    1 * time.Millisecond,
	}
	var sum time.Duration
	for st, d := range want {
		if got := sp.Stage(st); got != d {
			t.Errorf("stage %v = %v, want %v", st, got, d)
		}
		sum += d
	}
	if sp.Total() != sum || sp.Total() != 10*time.Millisecond {
		t.Errorf("total %v != stage sum %v", sp.Total(), sum)
	}
	if sp.End() != t0.Add(10*time.Millisecond) {
		t.Errorf("end = %v", sp.End())
	}

	var set StageSet
	for i := 0; i < 3; i++ {
		set.Record(&sp)
	}
	snap := set.Snapshot()
	for st := Stage(0); st < NumStages; st++ {
		if snap.Stages[st].N != 3 {
			t.Errorf("stage %v histogram N = %d, want 3 (counts must reconcile with requests)", st, snap.Stages[st].N)
		}
	}
	if snap.Total.N != 3 || snap.Total.Sum != 30*time.Millisecond {
		t.Errorf("total histogram N=%d Sum=%v", snap.Total.N, snap.Total.Sum)
	}
	if snap.Stages[StageDecode].Sum != 15*time.Millisecond {
		t.Errorf("decode stage sum = %v, want 15ms", snap.Stages[StageDecode].Sum)
	}
}

// TestSpanBeginResets pins span reuse (requests ride in recycled batch
// slices): Begin clears previous stage accumulations.
func TestSpanBeginResets(t *testing.T) {
	t0 := time.Unix(0, 0)
	var sp Span
	sp.Begin(t0)
	sp.Mark(StageDecode, t0.Add(time.Second))
	sp.Begin(t0)
	if sp.Stage(StageDecode) != 0 || sp.Total() != 0 {
		t.Fatalf("Begin did not reset: decode=%v total=%v", sp.Stage(StageDecode), sp.Total())
	}
}

// TestStageNames pins the metric labels (part of the exposition schema).
func TestStageNames(t *testing.T) {
	want := [NumStages]string{"admit", "queue", "coalesce", "decode", "write"}
	if StageNames() != want {
		t.Fatalf("stage names %v, want %v", StageNames(), want)
	}
	if Stage(99).String() != "unknown" {
		t.Fatal("out-of-range stage must stringify as unknown")
	}
}

// TestInstrumentationZeroAlloc is the zero-alloc instrumentation
// contract (DESIGN.md §10): the full per-request record sequence the
// service hot path runs — span lifecycle, stage-set record with its
// slowest-trace retention, atomic counter/gauge updates, histogram
// observe — allocates nothing, so turning observability on cannot break
// the service path's steady-state allocation discipline.
func TestInstrumentationZeroAlloc(t *testing.T) {
	var ctr atomic.Uint64
	var gauge atomic.Int64
	var hist Histogram
	var set StageSet
	var sp, slow Span
	var k time.Duration
	now := time.Unix(1000, 0)
	// fill the set's trace slots so Record exercises both the fast reject
	// and the displacing insert below
	for i := 1; i <= traceSlots; i++ {
		sp.Begin(now)
		sp.Mark(StageDecode, now.Add(time.Duration(i)*time.Second))
		set.Record(&sp)
	}

	allocs := testing.AllocsPerRun(200, func() {
		sp.Begin(now)
		sp.Mark(StageAdmit, now.Add(time.Microsecond))
		sp.Mark(StageQueue, now.Add(2*time.Microsecond))
		sp.Mark(StageCoalesce, now.Add(3*time.Microsecond))
		sp.Mark(StageDecode, now.Add(4*time.Microsecond))
		sp.Mark(StageWrite, now.Add(5*time.Microsecond))
		set.Record(&sp) // fast reject: faster than every retained trace
		slow.Begin(now)
		k++
		slow.Mark(StageDecode, now.Add(time.Hour+k))
		set.Record(&slow) // displaces the fastest retained trace
		ctr.Add(1)
		gauge.Add(1)
		gauge.Add(-1)
		hist.Observe(sp.Total())
	})
	if allocs != 0 {
		t.Fatalf("instrumentation allocates %.1f per request, want 0", allocs)
	}
}
