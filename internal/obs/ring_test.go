package obs

import (
	"sync"
	"testing"
	"time"
)

// recordTotal records one span of the given total into set, all of it in
// the decode stage, ending at Unix(0, total) so End encodes Total.
func recordTotal(set *StageSet, total time.Duration) {
	var sp Span
	start := time.Unix(0, 0)
	sp.Begin(start)
	sp.Mark(StageDecode, start.Add(total))
	set.Record(&sp)
}

// TestTraceRingKeepsSlowest pins the retention semantics: after
// recording totals 1..100ms, the snapshot holds exactly the slowest
// traceSlots of them, slowest first, whatever the recording order.
func TestTraceRingKeepsSlowest(t *testing.T) {
	var set StageSet
	for i := 1; i <= 100; i++ {
		recordTotal(&set, time.Duration(i)*time.Millisecond)
	}
	snap := set.Snapshot().Traces
	if len(snap) != traceSlots {
		t.Fatalf("retained %d traces, want %d", len(snap), traceSlots)
	}
	for i, tr := range snap {
		want := time.Duration(100-i) * time.Millisecond
		if tr.Total != want {
			t.Errorf("slot %d total %v, want %v (slowest first)", i, tr.Total, want)
		}
		if tr.Stages[StageDecode] != tr.Total || tr.End != int64(tr.Total) {
			t.Errorf("slot %d trace fields inconsistent: %+v", i, tr)
		}
	}
	// descending order must retain the same set
	var set2 StageSet
	for i := 100; i >= 1; i-- {
		recordTotal(&set2, time.Duration(i)*time.Millisecond)
	}
	snap2 := set2.Snapshot().Traces
	if len(snap2) != traceSlots || snap2[0].Total != 100*time.Millisecond ||
		snap2[traceSlots-1].Total != time.Duration(100-traceSlots+1)*time.Millisecond {
		t.Fatalf("descending records retained %+v", snap2)
	}
}

// TestTraceRingPartialFill pins behavior below capacity: everything
// recorded is retained.
func TestTraceRingPartialFill(t *testing.T) {
	var set StageSet
	for i := 1; i <= 5; i++ {
		recordTotal(&set, time.Duration(i))
	}
	if snap := set.Snapshot().Traces; len(snap) != 5 {
		t.Fatalf("retained %d, want 5", len(snap))
	}
}

// TestTraceRingConcurrent is the race-detector hammer: concurrent
// writers recording mixed totals while readers snapshot. Every snapshot
// is coherent — its traces number at most Total.N and none exceeds
// Total.Max, and each trace is internally consistent (its End encodes
// its Total) — and the set ends up holding only the slowest traces.
func TestTraceRingConcurrent(t *testing.T) {
	var set StageSet
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				recordTotal(&set, time.Duration((i*writers+w)%1000+1)*time.Microsecond)
			}
		}(w)
	}
	check := func(snap StageSnapshot) bool {
		if len(snap.Traces) > snap.Total.N {
			t.Errorf("snapshot holds %d traces over %d requests", len(snap.Traces), snap.Total.N)
			return false
		}
		for _, tr := range snap.Traces {
			if tr.Total > snap.Total.Max {
				t.Errorf("trace %v exceeds the snapshot's max %v", tr.Total, snap.Total.Max)
				return false
			}
			if tr.End != int64(tr.Total) || tr.Stages[StageDecode] != tr.Total {
				t.Errorf("torn trace: %+v", tr)
				return false
			}
		}
		return true
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if !check(set.Snapshot()) {
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()

	snap := set.Snapshot()
	check(snap)
	if len(snap.Traces) != traceSlots {
		t.Fatalf("retained %d traces after the hammer, want %d", len(snap.Traces), traceSlots)
	}
	// every offered total 1..1000µs appears 40 times, so the slowest 32
	// are all 1000µs
	for _, tr := range snap.Traces {
		if tr.Total != 1000*time.Microsecond {
			t.Errorf("trace %v retained, want only the slowest (1000µs)", tr.Total)
		}
	}
}
