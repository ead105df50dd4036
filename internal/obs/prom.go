package obs

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (version 0.0.4): plain functions writing
// one sample at a time. The format requires each family to be one
// contiguous group under a single # TYPE line, so callers write family
// by family — every labelled series of a family before the next family
// (CheckExposition is the test-side check of that rule).

// promBase splits a metric identity into the family name and the label
// block ("x_total{pool=\"a\"}" → "x_total", "{pool=\"a\"}").
func promBase(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// Label appends one label pair to a metric name, composing with any label
// block already present — the builder behind labelled families like
// bpsf_backend_decoded_total{backend="b0"}. Values are quoted with %q, so
// arbitrary pool and backend names stay well-formed exposition.
func Label(name, key, value string) string {
	pair := fmt.Sprintf("%s=%q", key, value)
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + pair + "}"
	}
	return name + "{" + pair + "}"
}

// PromWriter emits Prometheus text format with per-family TYPE headers
// deduplicated across calls, so the labelled series of one family share
// a single header.
type PromWriter struct {
	w    io.Writer
	seen map[string]bool
}

// NewPromWriter wraps w for exposition.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

func (p *PromWriter) header(base, kind string) {
	if !p.seen[base] {
		p.seen[base] = true
		fmt.Fprintf(p.w, "# TYPE %s %s\n", base, kind)
	}
}

// Counter writes one counter sample.
func (p *PromWriter) Counter(name string, v uint64) {
	base, labels := promBase(name)
	p.header(base, "counter")
	fmt.Fprintf(p.w, "%s%s %d\n", base, labels, v)
}

// Gauge writes one gauge sample.
func (p *PromWriter) Gauge(name string, v int64) {
	base, labels := promBase(name)
	p.header(base, "gauge")
	fmt.Fprintf(p.w, "%s%s %d\n", base, labels, v)
}

// GaugeFloat writes one floating-point gauge sample.
func (p *PromWriter) GaugeFloat(name string, v float64) {
	base, labels := promBase(name)
	p.header(base, "gauge")
	fmt.Fprintf(p.w, "%s%s %g\n", base, labels, v)
}

// Histogram writes one histogram series from a snapshot: cumulative
// power-of-two le buckets in seconds, then _sum and _count. Empty
// buckets are skipped (the cumulative counts stay exact); the top
// bucket renders as +Inf.
func (p *PromWriter) Histogram(name string, s HistSnapshot) {
	base, labels := promBase(name)
	p.header(base, "histogram")
	bucket := base + "_bucket" + labels
	var cum uint64
	for b, c := range s.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		if b == NumBuckets-1 {
			break // rendered by the +Inf bucket below
		}
		le := float64(BucketUpper(b)) / 1e9
		fmt.Fprintf(p.w, "%s %d\n", Label(bucket, "le", fmt.Sprintf("%g", le)), cum)
	}
	fmt.Fprintf(p.w, "%s %d\n", Label(bucket, "le", "+Inf"), uint64(s.N))
	fmt.Fprintf(p.w, "%s_sum%s %g\n", base, labels, s.Sum.Seconds())
	fmt.Fprintf(p.w, "%s_count%s %d\n", base, labels, s.N)
}

// CheckExposition reports the first violation of the text format's
// grouping rule in text: a family whose samples are split into more
// than one group, or that carries more than one # TYPE line. Histogram
// samples (_bucket, _sum, _count) belong to their family.
func CheckExposition(text string) error {
	kinds := make(map[string]string)
	done := make(map[string]bool)
	cur := ""
	for _, line := range strings.Split(text, "\n") {
		var fam string
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				return fmt.Errorf("obs: malformed TYPE line %q", line)
			}
			fam = f[2]
			if _, dup := kinds[fam]; dup {
				return fmt.Errorf("obs: family %s has more than one TYPE line", fam)
			}
			kinds[fam] = f[3]
		case line == "" || line[0] == '#':
			continue
		default:
			fam, _ = promBase(strings.Fields(line)[0])
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(fam, suffix); ok && kinds[base] == "histogram" {
					fam = base
				}
			}
		}
		if fam != cur {
			if done[fam] {
				return fmt.Errorf("obs: family %s is split into more than one group", fam)
			}
			done[cur] = true
			cur = fam
		}
	}
	return nil
}
