package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The benchmark's contract file, checked against the metric and workload
// lists this program reports.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func validUnit(u string) bool {
	if len(u) == 0 || len(u) > 16 {
		return false
	}
	for _, r := range u {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || strings.ContainsRune("_/%.-", r)) {
			return false
		}
	}
	return true
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !validName(n) {
			t.Errorf("%s name %q is not valid", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q used twice", kind, n)
		}
		seen[n] = true
	}

	var wl []string
	for _, w := range b.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if !reflect.DeepEqual(wl, sortedKeys(workloads)) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wl, sortedKeys(workloads))
	}

	var e2e []metricDef
	for _, m := range b.EndToEnd {
		name("metric", m.Name)
		if !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better: %+v", m)
		}
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program reports %v", e2e, endToEnd)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	var pl []metricDef
	for _, m := range b.PerLayer {
		name("metric", m.Name)
		if !validUnit(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
		pl = append(pl, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(pl, perLayer) {
		t.Errorf("per_layer %v, program reports %v", pl, perLayer)
	}
}

func TestValidUnit(t *testing.T) {
	for _, u := range []string{"ms", "1/s", "%", "count", "us"} {
		if !validUnit(u) {
			t.Errorf("%q rejected", u)
		}
	}
	for _, u := range []string{"", "µs", "per second", "12345678901234567"} {
		if validUnit(u) {
			t.Errorf("%q accepted", u)
		}
	}
}
