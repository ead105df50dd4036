package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is pinned by
// one or two draws and moves from run to run.
const minBeyond = 10

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// quantile is one order statistic of a sample: the nearest-rank q
// percentile, the sample count and how many samples lie above it.
type quantile struct {
	Q      float64
	Value  time.Duration
	N      int
	Beyond int
}

func (q quantile) String() string {
	return fmt.Sprintf("%s of n=%d (%d beyond)", pName(q), q.N, q.Beyond)
}

// pName names the percentile, as in "p95".
func pName(q quantile) string { return fmt.Sprintf("p%g", q.Q*100) }

// rankIndex is the nearest-rank index of percentile q in n sorted
// samples: the smallest i with (i+1)/n ≥ q.
func rankIndex(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// sortedCopy returns ds sorted ascending without touching the caller's
// slice.
func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile returns the nearest-rank q percentile of ds.
func percentile(ds []time.Duration, q float64) quantile {
	if len(ds) == 0 {
		return quantile{Q: q}
	}
	s := sortedCopy(ds)
	i := rankIndex(q, len(s))
	return quantile{Q: q, Value: s[i], N: len(s), Beyond: len(s) - 1 - i}
}

// tailPercentile returns the highest candidate percentile of ds that
// has at least minBeyond samples above it. With fewer than minBeyond+1
// samples no percentile qualifies and the median is returned, with its
// Beyond count showing the shortfall.
func tailPercentile(ds []time.Duration) quantile {
	for _, q := range tailCandidates {
		if p := percentile(ds, q); p.Beyond >= minBeyond {
			return p
		}
	}
	return percentile(ds, 0.5)
}

// windowed splits ds (in arrival order) into consecutive windows of
// size samples, applies pick to each, and returns the median window's
// value — with the first window's percentile and sample counts — and
// every window's value. A host that preempts the process for
// milliseconds now and then spoils a few windows; the median window is
// the latency the service gives between such stalls, which is what a
// change to the program can move. ds shorter than two windows is treated
// as one.
func windowed(ds []time.Duration, size int, pick func([]time.Duration) quantile) (quantile, []time.Duration) {
	if len(ds) < 2*size {
		q := pick(ds)
		return q, []time.Duration{q.Value}
	}
	var vals []time.Duration
	var first quantile
	for lo := 0; lo+size <= len(ds); lo += size {
		q := pick(ds[lo : lo+size])
		if lo == 0 {
			first = q
		}
		vals = append(vals, q.Value)
	}
	first.Value = median(vals)
	return first, vals
}

// windowedTail is windowed with each window's tail percentile.
func windowedTail(ds []time.Duration, size int) (quantile, []time.Duration) {
	return windowed(ds, size, tailPercentile)
}

// windowedMedian is windowed with each window's median.
func windowedMedian(ds []time.Duration, size int) (quantile, []time.Duration) {
	return windowed(ds, size, func(w []time.Duration) quantile { return percentile(w, 0.5) })
}

// mean returns the arithmetic mean of ds (0 for an empty slice).
func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// median returns the median of ds (mean of the two middle values for an
// even count) — used for set-up times, where only a few repeats exist.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := sortedCopy(ds)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return s[n/2-1] + (s[n/2]-s[n/2-1])/2 // no overflow for missed requests
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// validName reports whether s is a legal metric or workload name: 1 to 64
// characters from letters, digits, '_', '.' and '-', starting with a
// letter or a digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}
