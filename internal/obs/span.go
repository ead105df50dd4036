package obs

import (
	"cmp"
	"slices"
	"sync"
	"time"
)

// Stage is one fixed slot of a request's life inside the service:
//
//	admit    frame read complete → request enqueued (parse, unpack)
//	queue    enqueued → claimed by a pool worker
//	coalesce claimed → this request's decode begins (batch-sibling wait)
//	decode   the decoder call itself
//	write    decode done → reply frame flushed to the socket
//
// The five stages tile a request's residence time exactly:
// Σ stages == Span.Total. Streams reuse the decode/write slots for their
// per-commit timings (DESIGN.md §10).
type Stage int

const (
	StageAdmit Stage = iota
	StageQueue
	StageCoalesce
	StageDecode
	StageWrite
	NumStages
)

var stageNames = [NumStages]string{"admit", "queue", "coalesce", "decode", "write"}

// String returns the stage's metric label ("admit", "queue", ...).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageNames returns the stage labels in slot order.
func StageNames() [NumStages]string { return stageNames }

// Span is a zero-alloc per-request stage timer: Begin pins the start,
// each Mark closes the named stage at t (stage duration = time since the
// previous mark), so marks must arrive in stage order but may skip
// stages. A Span is a plain value — embed it in a request or a
// batch-parallel slice; no allocation, no lock (one goroutine owns it at
// any moment, handed off with the request). Methods are safe on a nil
// receiver so uninstrumented paths can carry a nil *Span.
type Span struct {
	start  time.Time
	last   time.Time
	stages [NumStages]time.Duration
}

// Begin starts the span at t.
func (s *Span) Begin(t time.Time) {
	if s == nil {
		return
	}
	s.start, s.last = t, t
	s.stages = [NumStages]time.Duration{}
}

// Mark closes stage st at t: the stage accumulates the time since the
// previous mark (or Begin).
func (s *Span) Mark(st Stage, t time.Time) {
	if s == nil {
		return
	}
	s.stages[st] += t.Sub(s.last)
	s.last = t
}

// Stage returns the accumulated duration of st.
func (s *Span) Stage(st Stage) time.Duration {
	if s == nil {
		return 0
	}
	return s.stages[st]
}

// Total returns Begin → last mark; by construction it equals the sum of
// the stage durations.
func (s *Span) Total() time.Duration {
	if s == nil {
		return 0
	}
	return s.last.Sub(s.start)
}

// End returns the wall-clock time of the last mark.
func (s *Span) End() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.last
}

// Trace is one slow request's stage breakdown retained by a StageSet.
type Trace struct {
	// End is the wall-clock completion time (UnixNano).
	End int64
	// Total is the request's full residence time.
	Total time.Duration
	// Stages are the per-stage durations (Span slot order).
	Stages [NumStages]time.Duration
}

// traceSlots is how many of the slowest traces a StageSet retains.
const traceSlots = 32

// StageSet is the per-stage histogram bank spans are recorded into: one
// power-of-two histogram per stage, a total-latency histogram and the
// slowest traceSlots traces, all updated and snapshotted under one mutex
// so a snapshot is coherent (every stage histogram holds exactly the same
// request population, and every retained trace is one of them).
// The zero value is ready; methods are safe on a nil receiver.
type StageSet struct {
	mu    sync.Mutex
	h     [NumStages]HistData
	total HistData
	slow  [traceSlots]Trace
	nslow int // filled slots of slow
	min   int // index of the fastest retained trace once slow is full
}

// Record folds one finished span into the set. Stages the span never
// marked record as zero-duration observations, keeping every stage
// histogram's count equal to the recorded request count.
func (s *StageSet) Record(sp *Span) {
	if s == nil || sp == nil {
		return
	}
	total := sp.Total()
	s.mu.Lock()
	for st := Stage(0); st < NumStages; st++ {
		s.h[st].Observe(sp.stages[st])
	}
	s.total.Observe(total)
	switch {
	case s.nslow < traceSlots:
		s.slow[s.nslow] = Trace{End: sp.last.UnixNano(), Total: total, Stages: sp.stages}
		s.nslow++
		if s.nslow == traceSlots {
			s.min = s.fastest()
		}
	case total > s.slow[s.min].Total:
		s.slow[s.min] = Trace{End: sp.last.UnixNano(), Total: total, Stages: sp.stages}
		s.min = s.fastest()
	}
	s.mu.Unlock()
}

// fastest returns the index of the smallest retained total. Caller holds
// s.mu.
func (s *StageSet) fastest() int {
	m := 0
	for i := 1; i < s.nslow; i++ {
		if s.slow[i].Total < s.slow[m].Total {
			m = i
		}
	}
	return m
}

// StageSnapshot is one coherent read of a StageSet.
type StageSnapshot struct {
	Stages [NumStages]HistSnapshot
	Total  HistSnapshot
	// Traces are the slowest recorded requests, slowest first.
	Traces []Trace `json:",omitempty"`
}

// Snapshot reads every stage histogram and the retained traces under one
// lock.
func (s *StageSet) Snapshot() StageSnapshot {
	if s == nil {
		return StageSnapshot{}
	}
	s.mu.Lock()
	var out StageSnapshot
	for st := Stage(0); st < NumStages; st++ {
		out.Stages[st] = s.h[st].Snapshot()
	}
	out.Total = s.total.Snapshot()
	if s.nslow > 0 {
		out.Traces = append([]Trace(nil), s.slow[:s.nslow]...)
	}
	s.mu.Unlock()
	sortTraces(out.Traces)
	return out
}

// sortTraces orders traces slowest first.
func sortTraces(ts []Trace) {
	slices.SortStableFunc(ts, func(a, b Trace) int { return cmp.Compare(b.Total, a.Total) })
}
