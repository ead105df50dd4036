package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bpsf/internal/gf2"
	"bpsf/internal/obs"
	"bpsf/internal/sim"
)

// statsHeaderLen is the StatsReply header ahead of the JSON document:
// type byte, stage count u8, bucket count u16.
const statsHeaderLen = 1 + 1 + 2

// populatedSnapshot is a ServerSnapshot with every section filled: a pool
// with a 100-sample latency histogram, a two-request stage set, a trace
// and a gateway's backend rows.
func populatedSnapshot() ServerSnapshot {
	var lat obs.Histogram
	for i := 1; i <= 100; i++ {
		lat.Observe(time.Duration(i) * time.Millisecond)
	}
	var set obs.StageSet
	var sp obs.Span
	t0 := time.Unix(100, 0)
	sp.Begin(t0)
	sp.Mark(obs.StageAdmit, t0.Add(time.Microsecond))
	sp.Mark(obs.StageDecode, t0.Add(3*time.Microsecond))
	sp.Mark(obs.StageWrite, t0.Add(4*time.Microsecond))
	set.Record(&sp)
	set.Record(&sp)

	return ServerSnapshot{
		Uptime: 90 * time.Second,
		Runtime: obs.RuntimeSnapshot{
			Goroutines: 12, GoMaxProcs: 8, NumCPU: 8,
			HeapAlloc: 1 << 20, HeapSys: 1 << 22, TotalAlloc: 1 << 24, Mallocs: 12345,
			NumGC: 3, GCPauseTotal: 400 * time.Microsecond, LastGCPause: 50 * time.Microsecond,
		},
		SessionsTotal:  7,
		SessionsActive: 2,
		Pools: []PoolStats{{
			Pool: "bb72/r2/p0.02/bpsf(iters=30)", Size: 4,
			Admitted: 120, Decoded: 100, ShedQueue: 15, ShedDeadline: 5,
			Batches: 25, Coalesced: 100, AvgBatch: 4,
			Busy:    3 * time.Second,
			Latency: lat.Snapshot(),
		}},
		Streams:      StreamStats{Opened: 3, Windows: 9},
		Stages:       set.Snapshot(),
		StreamStages: obs.StageSnapshot{},
		Backends: []BackendStats{
			{Name: "b0", Addr: "127.0.0.1:9000", Healthy: true, Sessions: 2, SessionsTotal: 4,
				Requests: 100, Failovers: 1, Replayed: 37},
			{Name: "b1", Addr: "127.0.0.1:9001", Draining: true},
		},
	}
}

// TestStatsReplyRoundTrip pins the msgStats wire codec: a populated
// ServerSnapshot must survive AppendStatsReply → ParseStatsReply exactly
// (derived fields — histogram Avg, pool AvgBatch — travel in the
// document), and re-encoding the parse must reproduce the frame.
func TestStatsReplyRoundTrip(t *testing.T) {
	want := populatedSnapshot()
	// empty stage histograms encode as all-zero and parse back identically
	payload := AppendStatsReply(nil, want)
	got, err := ParseStatsReply(payload)
	if err != nil {
		t.Fatalf("ParseStatsReply: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats reply round-trip diverges:\n got %+v\nwant %+v", got, want)
	}
	if re := AppendStatsReply(nil, got); !bytes.Equal(re, payload) {
		t.Fatal("re-encoded stats reply is not byte-identical")
	}
}

// TestStatsReplyMatchesStatusz pins the one snapshot encoding: the
// msgStats body is /statusz's JSON document in compact form, and both
// parse to the snapshot they were rendered from.
func TestStatsReplyMatchesStatusz(t *testing.T) {
	snap := populatedSnapshot()
	admin := NewAdmin(func() ServerSnapshot { return snap }, func(*obs.PromWriter) {})
	rec := httptest.NewRecorder()
	admin.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/statusz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/statusz: HTTP %d", rec.Code)
	}
	statusz := rec.Body.Bytes()

	payload := AppendStatsReply(nil, snap)
	var compact bytes.Buffer
	if err := json.Compact(&compact, statusz); err != nil {
		t.Fatal(err)
	}
	if body := payload[statsHeaderLen:]; !bytes.Equal(body, compact.Bytes()) {
		t.Fatalf("msgStats body is not the compact /statusz document:\n%s\n%s", body, compact.Bytes())
	}

	fromWire, err := ParseStatsReply(payload)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(statusz))
	dec.DisallowUnknownFields()
	var fromHTTP ServerSnapshot
	if err := dec.Decode(&fromHTTP); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromWire, fromHTTP) || !reflect.DeepEqual(fromWire, snap) {
		t.Fatalf("surfaces disagree:\n wire   %+v\n statusz %+v\n want   %+v", fromWire, fromHTTP, snap)
	}
}

// TestStatsReplyRejectsMalformedHistograms pins every refusal of the
// stats reply parser: foreign stage or bucket counts (JSON would zero-fill
// or truncate the fixed arrays), unknown fields, trailing bytes, and
// histograms whose N is negative or disagrees with the bucket sum — in
// the pool, stage and stream-stage sections alike.
func TestStatsReplyRejectsMalformedHistograms(t *testing.T) {
	valid := AppendStatsReply(nil, populatedSnapshot())
	if _, err := ParseStatsReply(valid); err != nil {
		t.Fatalf("valid reply refused: %v", err)
	}
	forge := func(edit func(*ServerSnapshot)) []byte {
		snap := populatedSnapshot()
		edit(&snap)
		return AppendStatsReply(nil, snap)
	}
	header := func(off int, v byte) []byte {
		b := bytes.Clone(valid)
		b[off] = v
		return b
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"bucket sum != N", forge(func(s *ServerSnapshot) { s.Pools[0].Latency.N = 99 })},
		// N = -5 over buckets summing to 2⁶⁴−5: the sum matches N's bits,
		// and merging it with an N = 5 histogram would divide by zero
		{"negative N", forge(func(s *ServerSnapshot) {
			s.Pools[0].Latency = obs.HistSnapshot{N: -5}
			s.Pools[0].Latency.Buckets[0] = ^uint64(4)
		})},
		{"bucket overflow", forge(func(s *ServerSnapshot) {
			s.Pools[0].Latency = obs.HistSnapshot{N: 1}
			s.Pools[0].Latency.Buckets[0] = ^uint64(0)
			s.Pools[0].Latency.Buckets[1] = 2
		})},
		{"stage N != bucket sum", forge(func(s *ServerSnapshot) { s.Stages.Stages[obs.StageQueue].N++ })},
		{"stage total N != bucket sum", forge(func(s *ServerSnapshot) { s.Stages.Total.N++ })},
		{"stream stage N != bucket sum", forge(func(s *ServerSnapshot) { s.StreamStages.Stages[obs.StageWrite].N = 1 })},
		{"stream total N != bucket sum", forge(func(s *ServerSnapshot) { s.StreamStages.Total.N = 1 })},
		{"stage count mismatch", header(1, byte(obs.NumStages)+1)},
		{"bucket count beyond max", header(2, obs.NumBuckets+1)},
		{"bucket count below build", header(2, obs.NumBuckets-1)},
		{"unknown field", bytes.Replace(valid, []byte(`{"Uptime"`), []byte(`{"Bogus":1,"Uptime"`), 1)},
		{"trailing bytes", append(bytes.Clone(valid), ' ')},
		{"second value", append(bytes.Clone(valid), "{}"...)},
		{"truncated body", valid[:len(valid)-1]},
		{"truncated header", valid[:statsHeaderLen-1]},
		{"wrong type byte", header(0, MsgBatchReply)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseStatsReply(tc.payload); err == nil {
				t.Fatal("malformed stats reply parsed without error")
			}
		})
	}
	t.Run("error frame", func(t *testing.T) {
		_, err := ParseStatsReply(AppendError(nil, "stats unavailable"))
		if err == nil || !strings.Contains(err.Error(), "stats unavailable") {
			t.Fatalf("error frame not returned as the error: %v", err)
		}
	})
}

// TestPoolStatsCoherentUnderHammer is the snapshot-consistency fix
// (PR 7): concurrent submitters, workers and a stats reader must never
// observe a snapshot where the latency histogram disagrees with the
// decode counter or completions exceed admissions — the pre-PR7 pool
// mixed atomics with a separately locked histogram and could tear.
func TestPoolStatsCoherentUnderHammer(t *testing.T) {
	p, err := newPool("stub", nil, func() (sim.Decoder, error) {
		return &stubDecoder{}, nil
	}, poolOptions{size: 4, queueDepth: 16, maxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}

	const submitters = 4
	const perSubmitter = 2000
	var wg sync.WaitGroup
	var reqWG sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps := make([]Response, perSubmitter)
			for i := 0; i < perSubmitter; i++ {
				reqWG.Add(1)
				p.submit(&request{
					syndrome: gf2.NewVec(8),
					enqueued: time.Now(),
					deadline: time.Second, // non-blocking admission: sheds possible
					resp:     &resps[i],
					wg:       &reqWG,
				})
			}
		}()
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
			st := p.stats()
			if uint64(st.Latency.N) != st.Decoded {
				t.Errorf("torn snapshot: Latency.N=%d, Decoded=%d", st.Latency.N, st.Decoded)
				return
			}
			if st.Decoded+st.ShedQueue+st.ShedDeadline > st.Admitted {
				t.Errorf("torn snapshot: completions %d+%d+%d exceed admissions %d",
					st.Decoded, st.ShedQueue, st.ShedDeadline, st.Admitted)
				return
			}
			if st.Coalesced < st.Batches && st.Batches > 0 {
				t.Errorf("torn snapshot: %d batches claimed only %d requests", st.Batches, st.Coalesced)
				return
			}
		}
	}()

	wg.Wait()
	reqWG.Wait()
	close(stop)
	readerWG.Wait()
	p.close()

	st := p.stats()
	const n = submitters * perSubmitter
	if st.Admitted != n {
		t.Fatalf("admitted %d, want %d", st.Admitted, n)
	}
	if st.Decoded+st.ShedQueue+st.ShedDeadline != n {
		t.Fatalf("final accounting leaks requests: %+v", st)
	}
	if uint64(st.Latency.N) != st.Decoded {
		t.Fatalf("final snapshot: Latency.N=%d, Decoded=%d", st.Latency.N, st.Decoded)
	}
}

// TestServerStatsReconcile is the telemetry acceptance invariant end to
// end: after a session decodes a known number of syndromes, a Stats pull
// on the same session must report stage histograms whose every stage
// count equals that number exactly (the stats reply rides the reply
// writer's queue, so it is ordered after every preceding batch's
// recording), pool counters that match, and slow traces whose stage
// durations tile their totals.
func TestServerStatsReconcile(t *testing.T) {
	s := startServer(t, Options{PoolSize: 2, QueueDepth: 64, MaxBatch: 8})
	h := testHello(4)
	const batches = 6
	const batchSize = 5
	const total = batches * batchSize
	syndromes := sampleSyndromes(t, s, h, total, 11)

	c, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var pendings []*Pending
	for b := 0; b < batches; b++ {
		p, err := c.Submit(syndromes[b*batchSize : (b+1)*batchSize])
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	for _, p := range pendings {
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}

	if snap.Stages.Total.N != total {
		t.Fatalf("stage total histogram has %d requests, want %d", snap.Stages.Total.N, total)
	}
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		if n := snap.Stages.Stages[st].N; n != total {
			t.Errorf("stage %v histogram has %d requests, want %d (stage counts must reconcile)", st, n, total)
		}
	}
	if len(snap.Pools) != 1 {
		t.Fatalf("%d pools, want 1", len(snap.Pools))
	}
	ps := snap.Pools[0]
	if ps.Admitted != total || ps.Decoded != total || ps.ShedQueue != 0 || ps.ShedDeadline != 0 {
		t.Fatalf("pool accounting: %+v, want %d admitted = decoded", ps, total)
	}
	if uint64(ps.Latency.N) != ps.Decoded {
		t.Fatalf("pool Latency.N=%d != Decoded=%d", ps.Latency.N, ps.Decoded)
	}
	if snap.SessionsTotal < 1 || snap.SessionsActive < 1 {
		t.Fatalf("session counters: total=%d active=%d", snap.SessionsTotal, snap.SessionsActive)
	}
	if snap.Runtime.Goroutines < 1 || snap.Uptime <= 0 {
		t.Fatalf("runtime section empty: %+v", snap.Runtime)
	}
	traces := snap.Stages.Traces
	if len(traces) == 0 {
		t.Fatal("no slow traces retained after decoding")
	}
	for i, tr := range traces {
		var sum time.Duration
		for _, d := range tr.Stages {
			sum += d
		}
		if sum != tr.Total {
			t.Errorf("trace %d stages sum %v != total %v", i, sum, tr.Total)
		}
		if i > 0 && tr.Total > traces[i-1].Total {
			t.Errorf("traces not sorted slowest first at %d", i)
		}
	}

	// the span tiling invariant survives aggregation: per-stage sums add up
	// to the total-latency sum exactly
	var stageSum time.Duration
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		stageSum += snap.Stages.Stages[st].Sum
	}
	if stageSum != snap.Stages.Total.Sum {
		t.Fatalf("stage sums %v != total residence %v (stages must tile requests)", stageSum, snap.Stages.Total.Sum)
	}

	// the text rendering (SIGUSR1 / bpsf-load -stats) carries every section
	var buf strings.Builder
	snap.WriteText(&buf)
	text := buf.String()
	for _, want := range []string{"server: up", "pool bb72", "stages (", "slowest", " p99.9="} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText missing %q:\n%s", want, text)
		}
	}
}

// TestStreamStatsReconcile pins the stream plane's counterpart: windowed
// commits land in StreamStages with one decode+write span per commit.
func TestStreamStatsReconcile(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1})
	h := testHello(21)
	c, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.OpenStream(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rounds := make([]gf2.Vec, st.NumRounds())
	for i := range rounds {
		rounds[i] = gf2.NewVec(st.RoundDets(i))
	}
	if err := st.SendRounds(rounds); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Streams.Opened != 1 {
		t.Fatalf("streams opened %d, want 1", snap.Streams.Opened)
	}
	if snap.Streams.Windows == 0 {
		t.Fatal("no windows committed")
	}
	if got := snap.StreamStages.Total.N; uint64(got) != snap.Streams.Windows {
		t.Fatalf("stream stage histograms hold %d commits, server committed %d", got, snap.Streams.Windows)
	}
	if snap.StreamStages.Stages[obs.StageDecode].Sum == 0 {
		t.Fatal("stream decode stage recorded no time")
	}
}

// TestAdminEndpoints drives a loopback server under load and scrapes the
// admin plane: /metrics must expose the pool counters and stage
// histograms with counts that reconcile with the request count, /statusz
// must serve the same snapshot as JSON, and Drain must close the
// listener.
func TestAdminEndpoints(t *testing.T) {
	s := startServer(t, Options{PoolSize: 2, MaxBatch: 8})
	adminAddr, err := s.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := testHello(17)
	const total = 24
	syndromes := sampleSyndromes(t, s, h, total, 13)

	c, err := Dial(s.Addr().String(), h)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Decode(syndromes); err != nil {
		t.Fatal(err)
	}
	// barrier: the in-protocol stats pull orders the scrape after the
	// session's last span recording
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + adminAddr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	decodedRe := regexp.MustCompile(`(?m)^bpsf_pool_decoded_total\{pool="[^"]+"\} (\d+)$`)
	m := decodedRe.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("/metrics missing bpsf_pool_decoded_total:\n%s", metrics)
	}
	if n, _ := strconv.Atoi(m[1]); n != total {
		t.Fatalf("bpsf_pool_decoded_total = %s, want %d", m[1], total)
	}
	for _, stage := range obs.StageNames() {
		re := regexp.MustCompile(fmt.Sprintf(`(?m)^bpsf_stage_seconds_count\{stage=%q\} (\d+)$`, stage))
		sm := re.FindStringSubmatch(metrics)
		if sm == nil {
			t.Fatalf("/metrics missing bpsf_stage_seconds_count for stage %q", stage)
		}
		if n, _ := strconv.Atoi(sm[1]); n != total {
			t.Fatalf("stage %q count %s, want %d (stage histograms must sum to the request count)", stage, sm[1], total)
		}
	}
	for _, want := range []string{"go_goroutines", "bpsf_sessions_total", "bpsf_request_seconds_count", "process_uptime_seconds"} {
		if !regexp.MustCompile(`(?m)^` + want + `\b`).MatchString(metrics) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	var statusz struct {
		Pools []struct {
			Pool    string
			Decoded uint64
		}
		Stages struct {
			Total  struct{ N int }
			Traces []struct{ Total int64 }
		}
	}
	if err := json.Unmarshal([]byte(get("/statusz")), &statusz); err != nil {
		t.Fatalf("/statusz is not JSON: %v", err)
	}
	if len(statusz.Pools) != 1 || statusz.Pools[0].Decoded != total {
		t.Fatalf("/statusz pools: %+v, want one pool with %d decoded", statusz.Pools, total)
	}
	if statusz.Stages.Total.N != total {
		t.Fatalf("/statusz stage total N=%d, want %d", statusz.Stages.Total.N, total)
	}
	if len(statusz.Stages.Traces) == 0 {
		t.Fatal("/statusz has no slow traces")
	}

	if !regexp.MustCompile(`(?s)profile`).MatchString(get("/debug/pprof/")) {
		t.Error("/debug/pprof/ index missing")
	}

	s.Drain(time.Second)
	if _, err := http.Get("http://" + adminAddr.String() + "/metrics"); err == nil {
		t.Fatal("admin listener still serving after Drain")
	}
}

// TestAdminMetricsGrouped: with two pools (two Hellos) every /metrics
// family is one contiguous group under one TYPE line — the renderer
// writes family by family, not pool by pool — and the families the
// server writes beside the snapshot are present.
func TestAdminMetricsGrouped(t *testing.T) {
	s := startServer(t, Options{PoolSize: 1})
	for _, p := range []float64{0.01, 0.02} {
		c, err := Dial(s.Addr().String(), Hello{Code: "rsurf3", P: p, StreamSeed: 5, Spec: Spec{Kind: "uf"}})
		if err != nil {
			t.Fatal(err)
		}
		pd, err := c.SubmitSample(8)
		if err == nil {
			_, err = pd.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()
	if err := obs.CheckExposition(text); err != nil {
		t.Fatalf("/metrics: %v\n%s", err, text)
	}
	if n := strings.Count(text, "\nbpsf_pool_decoded_total{"); n != 2 {
		t.Fatalf("/metrics has %d bpsf_pool_decoded_total series, want one per pool (2):\n%s", n, text)
	}
	for _, want := range []string{"bpsf_sessions_active", "bpsf_stats_requests_total",
		"bpsf_arena_frame_reads_total", "bpsf_arena_write_flushes_total", "go_goroutines"} {
		if !regexp.MustCompile(`(?m)^` + want + ` `).MatchString(text) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
