package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestNilReceiversAreNoOps pins the off-switch contract: every record
// and read primitive is safe on a nil receiver, so call sites never
// guard instrumentation.
func TestNilReceiversAreNoOps(t *testing.T) {
	var hd *HistData
	hd.Observe(time.Second)
	if hd.Snapshot() != (HistSnapshot{}) {
		t.Fatal("nil HistData has a snapshot")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Snapshot() != (HistSnapshot{}) {
		t.Fatal("nil Histogram has a snapshot")
	}
	var sp *Span
	sp.Begin(time.Now())
	sp.Mark(StageDecode, time.Now())
	if sp.Total() != 0 || sp.Stage(StageDecode) != 0 {
		t.Fatal("nil span recorded")
	}
	var ss *StageSet
	ss.Record(&Span{})
	if !reflect.DeepEqual(ss.Snapshot(), StageSnapshot{}) {
		t.Fatal("nil StageSet has a snapshot")
	}
}

// TestPromExposition pins the text format: TYPE headers deduplicated per
// family, labeled series under one header, histogram buckets cumulative
// in seconds with an exact +Inf count.
func TestPromExposition(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter(`bpsf_pool_decoded_total{pool="a"}`, 10)
	p.Counter(`bpsf_pool_decoded_total{pool="b"}`, 20)
	p.Gauge("go_goroutines", 12)

	var h HistData
	h.Observe(0)
	h.Observe(900 * time.Nanosecond) // bucket 10: [512,1024)
	h.Observe(900 * time.Nanosecond)
	h.Observe(time.Hour) // far bucket
	p.Histogram(`bpsf_stage_seconds{stage="decode"}`, h.Snapshot())

	out := sb.String()
	wantLines := []string{
		"# TYPE bpsf_pool_decoded_total counter",
		`bpsf_pool_decoded_total{pool="a"} 10`,
		`bpsf_pool_decoded_total{pool="b"} 20`,
		"# TYPE go_goroutines gauge",
		"go_goroutines 12",
		"# TYPE bpsf_stage_seconds histogram",
		`bpsf_stage_seconds_bucket{stage="decode",le="0"} 1`,
		`bpsf_stage_seconds_bucket{stage="decode",le="1.023e-06"} 3`,
		`bpsf_stage_seconds_bucket{stage="decode",le="+Inf"} 4`,
		`bpsf_stage_seconds_count{stage="decode"} 4`,
	}
	for _, want := range wantLines {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q\ngot:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE bpsf_pool_decoded_total") != 1 {
		t.Errorf("TYPE header for labeled family not deduplicated:\n%s", out)
	}
}

// TestRuntimeSnapshot sanity-checks the runtime section.
func TestRuntimeSnapshot(t *testing.T) {
	s := ReadRuntime()
	if s.Goroutines < 1 || s.GoMaxProcs < 1 || s.NumCPU < 1 {
		t.Fatalf("implausible runtime snapshot: %+v", s)
	}
	if s.HeapAlloc == 0 || s.TotalAlloc == 0 {
		t.Fatalf("zero heap figures: %+v", s)
	}
	var sb strings.Builder
	s.WritePrometheus(NewPromWriter(&sb), 3*time.Second)
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "process_uptime_seconds 3"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("runtime exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestCheckExposition pins the grouping check the service and gateway
// scrapes are held to: one contiguous group per family (histogram
// suffixes included) under at most one TYPE line.
func TestCheckExposition(t *testing.T) {
	var h HistData
	h.Observe(time.Millisecond)
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter(`a_total{x="1"}`, 1)
	p.Counter(`a_total{x="2"}`, 2)
	p.Histogram(`lat_seconds{x="1"}`, h.Snapshot())
	p.Histogram(`lat_seconds{x="2"}`, h.Snapshot())
	p.Gauge("b", 3)
	if err := CheckExposition(sb.String()); err != nil {
		t.Fatalf("grouped exposition rejected: %v\n%s", err, sb.String())
	}
	for name, text := range map[string]string{
		"split samples":   "# TYPE a_total counter\na_total{x=\"1\"} 1\n# TYPE b gauge\nb 3\na_total{x=\"2\"} 2\n",
		"split histogram": "# TYPE l histogram\nl_bucket{le=\"+Inf\"} 1\nl_sum 1\nl_count 1\n# TYPE b gauge\nb 3\nl_count 1\n",
		"two TYPE lines":  "# TYPE a_total counter\na_total 1\n# TYPE a_total counter\n",
	} {
		if CheckExposition(text) == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}
}
