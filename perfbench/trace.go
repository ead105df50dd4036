package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxKeptSpans bounds the spans kept for the trace file; capacity-mc
// records one span per decode, about a million per run. Spans past the
// cap are still counted.
const maxKeptSpans = 200_000

// span is one call into a layer, recorded from the benchmark's own
// files around an exported call (or derived from the stage times such a
// call returns). Times are nanoseconds since the tracer started; Parent
// is the index of the enclosing span, or -1; Req groups the spans of
// one request (a syndrome, a service request, a stream round).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so instrumented code needs no
// branches.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index for children, or -1
// when the tracer is off or full.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxKeptSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// count returns the number of spans recorded, kept or not.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

// snapshot returns a copy of the kept spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (the
// parallel trial workers) count once; child time outside the parent is
// ignored.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, children[i])
	}
	return self
}

// covered returns the length of [lo, hi) covered by the union of the
// intervals of cs.
func covered(lo, hi int64, cs []span) int64 {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time by span name.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// spanCost measures what recording one span costs — the time the traced
// run spends in the tracer per span — on a scratch tracer.
func spanCost() time.Duration {
	const n = 20_000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		t.add("calibrate", -1, int64(i), now, now)
	}
	return time.Since(t0) / n
}

// write stores the kept spans as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
