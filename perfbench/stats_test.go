package main

import (
	"testing"
	"time"
)

func ramp(n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[n-1-i] = time.Duration(i+1) * time.Microsecond // descending: selection must sort
	}
	return ds
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{200, 0.95, 10},
		{250, 0.95, 12},
		{1000, 0.99, 10},
		{1099, 0.99, 10},
		{10000, 0.999, 10},
		{100, 0.90, 10},
		{40, 0.75, 10},
		{20, 0.50, 10},
		{5, 0.50, 2}, // nothing qualifies: the median, with its shortfall shown
	} {
		got := tailPercentile(ramp(c.n))
		if got.Q != c.q || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %v, want p%g with %d beyond", c.n, got, c.q*100, c.beyond)
		}
		// the value is the order statistic with exactly Beyond samples above it
		if want := time.Duration(c.n-c.beyond) * time.Microsecond; got.Value != want {
			t.Errorf("n=%d: value %v, want %v", c.n, got.Value, want)
		}
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	ds := ramp(10)
	percentile(ds, 0.5)
	if ds[0] != 10*time.Microsecond {
		t.Fatal("percentile sorted the caller's slice")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]time.Duration{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]time.Duration{4, 1, 3, 2}); got != 2 {
		t.Errorf("even median = %v, want 2 (mean of 2 and 3, truncated)", got)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "bp.iters_per_decode", "bb144-latency", "9lives", "a"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'x'
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "p95/ms", "ünï", string(long)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	if !validName(string(long[:64])) {
		t.Error("64-character name rejected")
	}
}

func TestWindowedTailTakesTheMedianWindow(t *testing.T) {
	// five windows of 100: four quiet ones and one stalled one whose
	// p90 is far out; the median window ignores the stall
	var ds []time.Duration
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			d := time.Duration(i+1) * time.Microsecond
			if w == 1 {
				d *= 1000
			}
			if w == 3 {
				d *= 2
			}
			ds = append(ds, d)
		}
	}
	q, tails := windowedTail(ds, 100)
	if len(tails) != 5 || q.Q != 0.90 || q.N != 100 || q.Beyond != 10 {
		t.Fatalf("got %v over %d windows", q, len(tails))
	}
	if q.Value != 90*time.Microsecond {
		t.Errorf("median window p90 = %v, want 90µs (windows %v)", q.Value, tails)
	}
	// fewer than two windows' worth: one plain tail
	if q, tails := windowedTail(ds[:150], 100); len(tails) != 1 || q.N != 150 {
		t.Errorf("short input: %v over %d windows", q, len(tails))
	}
	// a missed request never overflows the median
	m := []time.Duration{missed, missed}
	if got := median(m); got != missed {
		t.Errorf("median of missed = %v", got)
	}
}
