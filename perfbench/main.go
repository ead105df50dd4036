// Command perfbench is the repository's benchmark. One run measures one
// workload:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It builds its inputs from the seed, drives the decoder, engine, service
// and fleet layers only through their exported functions, checks every
// output it times, prints a human-readable report, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the run records a span
// around every call into a layer and reports the per-layer set. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract and must match BENCHMARK.json.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the system sees. Every workload fills every
// one; README.md says what each means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer attributes the end-to-end numbers to layers. A workload that
// does not reach a layer reports 0 for it.
var perLayer = []metricDef{
	{"bp.iters_per_decode", "count"},
	{"bp.converged_ratio", "ratio"},
	{"bp.ns_per_edge_update", "ns"},
	{"bp.allocs_per_decode", "count"},
	{"bpsf.init_ms_avg", "ms"},
	{"bpsf.post_ms_avg", "ms"},
	{"bpsf.post_ms_p95", "ms"},
	{"bpsf.postproc_ratio", "ratio"},
	{"bpsf.trials_per_postproc", "count"},
	{"bpsf.trial_success_ratio", "ratio"},
	{"bpsf.par_speedup", "ratio"},
	{"bpsf.sched_model_error", "ratio"},
	{"bpsf.par_mismatch", "count"},
	{"bpsf.allocs_per_decode", "count"},
	{"bpsf.serial_p50_ms", "ms"},
	{"bpsf.serial_p95_ms", "ms"},
	{"bposd.p50_ms", "ms"},
	{"bposd.p95_ms", "ms"},
	{"bposd.bp_ms_avg", "ms"},
	{"osd.ms_avg", "ms"},
	{"osd.invocation_ratio", "ratio"},
	{"osd.allocs_per_decode", "count"},
	{"uf.us_per_decode", "us"},
	{"uf.allocs_per_decode", "count"},
	{"sim.decode_busy_ratio", "ratio"},
	{"sim.overhead_us_per_shot", "us"},
	{"sim.bpsf_shots_per_s", "1/s"},
	{"sim.uf_shots_per_s", "1/s"},
	{"sim.bpsf_ler", "ratio"},
	{"sim.uf_ler", "ratio"},
	{"service.admit_us_avg", "us"},
	{"service.queue_us_avg", "us"},
	{"service.coalesce_us_avg", "us"},
	{"service.decode_us_avg", "us"},
	{"service.write_us_avg", "us"},
	{"service.batch_avg", "count"},
	{"service.wire_us_avg", "us"},
	{"service.stream_decode_us_avg", "us"},
	{"service.stream_write_us_avg", "us"},
	{"service.first_hello_s", "s"},
	{"frame.us_per_block", "us"},
	{"window.push_round_us_avg", "us"},
	{"fleet.hop_us_avg", "us"},
	{"fleet.journal_frames_per_stream", "count"},
	{"fleet.failovers", "count"},
	{"dem.extract_s", "s"},
	{"memexp.build_s", "s"},
	{"loadgen.late_us_p99", "us"},
	{"loadgen.due_p50_us", "us"},
	{"loadgen.due_tail_us", "us"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// env is what a workload run receives.
type env struct {
	seed   int64
	budget time.Duration // --seconds: how long the timed phases run
	trace  *tracer       // nil in the untraced run
	out    io.Writer     // human-readable report
}

func (e *env) traced() bool { return e.trace != nil }

func (e *env) printf(format string, args ...interface{}) { fmt.Fprintf(e.out, format, args...) }

// report is what a workload run produced.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	// measured is the wall time of the timed phases; the tracing overhead
	// is stated as a share of it.
	measured time.Duration
	// use is the load generator's footprint: threads, sessions and
	// workers by kind, flagged when any exceeds nproc.
	use map[string]int
}

func newReport() *report { return &report{values: map[string]float64{}, use: map[string]int{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check records a failed output check; the run is then not correct.
func (r *report) check(ok bool, format string, args ...interface{}) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its run.
var workloads = map[string]func(*env) (*report, error){
	"bb144-latency":  runLatency,
	"capacity-mc":    runCapacity,
	"edge-serve":     runServe,
	"stream-gateway": runStream,
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(sortedKeys(workloads), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phases, in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (known: %s)\n", *workload, strings.Join(sortedKeys(workloads), ", "))
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	host := fingerprint()
	fmt.Fprintln(stdout, host)
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, out: stdout}
	if *traceFlag == 1 {
		e.trace = newTracer()
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %ds, trace %d\n", *workload, *seed, *seconds, *traceFlag)

	rep, err := w(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.use["GOMAXPROCS"] = host.GOMAXPROCS
	for _, f := range overCommitted(host.NumCPU, rep.use) {
		fmt.Fprintf(stdout, "host: FLAGGED: load generation uses %s\n", f)
	}

	defs := endToEnd
	if e.traced() {
		defs = perLayer
		n := e.trace.count()
		rep.set("trace.spans", float64(n))
		cost := spanCost()
		rep.set("trace.overhead_pct", 100*ratio(float64(time.Duration(n)*cost), float64(rep.measured)))
		path, err := e.trace.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "trace: %d spans (%d kept in %s), %v per span\n", n, min(n, maxKeptSpans), path, cost)
		}
		self := layerSelf(e.trace.snapshot())
		for _, name := range sortedKeys(self) {
			fmt.Fprintf(stdout, "  self time %-22s %v\n", name, self[name])
		}
	}
	res := jsonResult{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	fmt.Fprintln(stdout, "metrics:")
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok && !e.traced() {
			rep.check(false, "end-to-end metric %s not measured", d.Name)
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if rep.attempted < 1 {
		rep.check(false, "no operation attempted")
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	res.Correct = len(rep.problems) == 0 && rep.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// repeatSetup runs build n times and keeps the last result. Set-up is
// short and noisy, so its median over several repeats is the reported
// setup_s; release tears down each discarded repeat (servers, fleets).
func repeatSetup[T any](n int, build func() (T, error), release func(T)) (T, time.Duration, error) {
	var last T
	times := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			if i > 0 && release != nil {
				release(last)
			}
			return last, 0, err
		}
		times = append(times, time.Since(t0))
		if i < n-1 && release != nil {
			release(v)
		}
		last = v
	}
	return last, median(times), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
