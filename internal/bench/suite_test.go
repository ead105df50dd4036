package bench

import (
	"strings"
	"testing"
)

// tiny is the test-depth config: the same workload ids as CI and full
// runs, at minimal measurement time.
var tiny = Config{Smoke: true, Seed: 1}

// TestRunSamplerWorkloads runs the sampler area end to end and pins its
// workload vocabulary and the per-entry schema fields.
func TestRunSamplerWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("measured suite")
	}
	rep, err := RunSampler(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Area != "sampler" || rep.Schema != SchemaVersion {
		t.Errorf("report header: %+v", rep)
	}
	for _, w := range []string{
		"sampler/rsurf5/circuit-batch", "sampler/rsurf5/circuit-scalar",
		"sampler/rsurf5/dem-batch", "sampler/rsurf5/dem-scalar",
	} {
		e, ok := rep.Lookup(w, MetricNsPerOp)
		if !ok || e.Value <= 0 || e.N <= 0 {
			t.Errorf("%s: ns/op entry = %+v, %v", w, e, ok)
		}
		if _, ok := rep.Lookup(w, MetricAllocsPerOp); !ok {
			t.Errorf("%s: missing allocs/op entry", w)
		}
	}
	if rep.Host.Fingerprint() != CurrentHost().Fingerprint() {
		t.Error("report not stamped with the current host")
	}
}

// TestRunServiceProfile runs the service area over one tiny custom
// profile against a real loopback server, checking the three service
// metrics land.
func TestRunServiceProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("measured suite")
	}
	rep, err := RunService(Config{Smoke: true, Seed: 1}, []string{"ci-smoke"})
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{MetricShotsPerSec, MetricP50Ns, MetricP99Ns} {
		e, ok := rep.Lookup("service/ci-smoke", metric)
		if !ok || e.Value <= 0 {
			t.Errorf("service/ci-smoke %s = %+v, %v", metric, e, ok)
		}
	}
}

// TestRunServiceRejectsStreamingProfile: streaming profiles replay only
// through bpsf-load; asking the batch-plane service area for one is a
// loud error, not a silent skip.
func TestRunServiceRejectsStreamingProfile(t *testing.T) {
	if _, err := RunService(tiny, []string{"stream-rsurf5-uf"}); err == nil ||
		!strings.Contains(err.Error(), "streaming") {
		t.Errorf("streaming profile error = %v", err)
	}
	if _, err := RunService(tiny, []string{"nope"}); err == nil {
		t.Error("unknown profile accepted by the service area")
	}
}

// TestRunUnknownArea pins the area vocabulary error.
func TestRunUnknownArea(t *testing.T) {
	if _, err := Run("nope", tiny); err == nil || !strings.Contains(err.Error(), "areas:") {
		t.Errorf("unknown area error = %v", err)
	}
	if len(Areas()) != 5 {
		t.Errorf("Areas() = %v, want the five pinned areas", Areas())
	}
}

// TestRunFleet runs the fleet area end to end — a real loopback server
// and a real one-backend gateway — and pins the direct/gateway workload
// pair and their three metrics.
func TestRunFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("measured suite")
	}
	rep, err := RunFleet(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Area != "fleet" {
		t.Errorf("area = %q", rep.Area)
	}
	for _, leg := range []string{"direct", "gateway"} {
		w := "fleet/" + fleetProfile + "/" + leg
		for _, metric := range []string{MetricShotsPerSec, MetricP50Ns, MetricP99Ns} {
			e, ok := rep.Lookup(w, metric)
			if !ok || e.Value <= 0 {
				t.Errorf("%s %s = %+v, %v", w, metric, e, ok)
			}
		}
	}
}

// TestSmokeConfigScaling: smoke mode shortens measurement time and
// honours a profile's opt-in SmokeShots, but never rescales a profile
// that declared none — fast workloads keep full depth so smoke numbers
// stay comparable to the committed baselines.
func TestSmokeConfigScaling(t *testing.T) {
	smoke, full := Config{Smoke: true}, Config{}
	if smoke.minTime() >= full.minTime() {
		t.Error("smoke minTime not shorter than full")
	}
	slow := Profile{Shots: 4096, SmokeShots: 256}
	if got := smoke.serviceShots(slow); got != 256 {
		t.Errorf("smoke shots for a SmokeShots profile = %d", got)
	}
	if got := full.serviceShots(slow); got != 4096 {
		t.Errorf("full shots changed = %d", got)
	}
	fast := Profile{Shots: 4096}
	if got := smoke.serviceShots(fast); got != 4096 {
		t.Errorf("smoke rescaled a profile without SmokeShots to %d", got)
	}
}
