package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
)

// LoadConfig describes one synthetic traffic run against a decode
// service: the session geometry (code, rounds, p, decoder spec), the load
// model (closed-loop saturation or open-loop fixed arrival rate), the
// plane (request batches, or windowed round streams when Window > 0) and
// the syndrome source (server-side sampling, or the same shots sampled
// client-side and uploaded as packed syndromes).
//
// It is the substrate of cmd/bpsf-load, of the service-latency
// experiment and of in-process loopback tests against a Server.
type LoadConfig struct {
	Code   string
	Rounds int // syndrome-extraction rounds (0 = catalog default)
	P      float64
	Spec   Spec

	Sessions  int // concurrent sessions (default 1)
	Shots     int // total syndromes (streams, when Window > 0) across all sessions
	BatchSize int // syndromes per request batch (default 16)

	// ServerSample selects server-side batch sampling (SubmitSample); when
	// false the client samples the same shots from DEM and uploads their
	// syndromes. The stream plane always samples client-side.
	ServerSample bool
	// DEM is the client-side sampling model; required unless the run is
	// server-sampled batches.
	DEM *dem.DEM

	Mode string  // "closed" (default) or "open"
	Rate float64 // total batch (stream plane: round) arrivals per second, open mode

	Seed     int64
	Deadline time.Duration // server queue deadline (0 = backpressure)

	// Window > 0 selects the stream plane: each shot is one multi-round
	// syndrome sent round by round over a stream opened with (Window,
	// Commit); zero Commit takes the server's default.
	Window, Commit int
}

func (cfg LoadConfig) withDefaults() (LoadConfig, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.Mode == "" {
		cfg.Mode = "closed"
	}
	switch cfg.Mode {
	case "closed":
	case "open":
		if cfg.Rate <= 0 {
			return cfg, errors.New("service: open-loop load needs Rate > 0")
		}
	default:
		return cfg, fmt.Errorf("service: unknown load mode %q (want closed|open)", cfg.Mode)
	}
	if (!cfg.ServerSample || cfg.Window > 0) && cfg.DEM == nil {
		return cfg, errors.New("service: client-side sampling needs a DEM")
	}
	if cfg.Rounds == 0 {
		entry, ok := codes.Catalog()[cfg.Code]
		if !ok {
			return cfg, fmt.Errorf("service: unknown code %q (known: %v)", cfg.Code, codes.Names())
		}
		cfg.Rounds = entry.Rounds
	}
	return cfg, nil
}

// LoadResult is the accounting of one DriveLoad run. Every submitted
// syndrome is attributed exactly once: decoded, shed, or part of a failed
// batch (a batch whose responses never arrived — counted so overload and
// crash runs cannot under-report).
//
// In the stream plane a shot is a stream: Decoded counts finished
// streams, DecodeFailures those whose verdict failed, FailedBatches those
// lost to session errors, and ServerLat/ClientLat hold one entry per
// committed window (round arrival → commit on the server; last needed
// round sent → commit received on the client). Streams never shed.
type LoadResult struct {
	Decoded         int
	Shed            int
	DecodeFailures  int // decoded but the decoder did not satisfy the syndrome
	LogicalFailures int // server-sampled shots with a wrong logical verdict
	FailedBatches   int // batches lost to session errors (responses unaccounted)

	Windows int // committed windows (stream plane)
	// FirstStream is the committed correction of session 0's first
	// stream, the reference a replay of that stream must reproduce;
	// FirstCommit is the commit-region size the server resolved for it
	// (a zero Commit takes the server's default).
	FirstStream gf2.Vec
	FirstCommit int

	Wall                 time.Duration
	ServerLat, ClientLat []time.Duration
}

// Throughput returns decoded syndromes per second of wall clock.
func (r LoadResult) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Decoded) / r.Wall.Seconds()
}

// DriveLoad runs the load model of cmd/bpsf-load against the server at
// addr and returns the full accounting. Session s opens with StreamSeed
// Seed+1000s; client-side it samples with SampleSeed(StreamSeed), the
// server's sampler seed for that session, so a client-sampled and a
// server-sampled run with one Seed decode the same syndromes. No failure
// path is silent: open-loop batches whose Pending.Wait fails are counted
// in FailedBatches and their errors — along with every session's dial,
// submit and stream errors, not just the first — are joined into the
// returned error, so a run that lost responses can never report a clean
// result.
func DriveLoad(addr string, cfg LoadConfig) (LoadResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return LoadResult{}, err
	}
	l := &loadRun{cfg: cfg}
	if cfg.Mode == "open" {
		// per-session arrival interval; sessions are staggered by Dial
		// time so total arrivals approximate Rate
		per := cfg.BatchSize
		if cfg.Window > 0 {
			per = 1
		}
		l.interval = time.Duration(float64(cfg.Sessions) * float64(per) / cfg.Rate * float64(time.Second))
	}
	perSession := (cfg.Shots + cfg.Sessions - 1) / cfg.Sessions

	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < cfg.Sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h := Hello{
				Code: cfg.Code, Rounds: cfg.Rounds, P: cfg.P,
				StreamSeed: cfg.Seed + int64(s)*1000,
				Deadline:   cfg.Deadline,
				Spec:       cfg.Spec,
			}
			c, err := Dial(addr, h)
			if err != nil {
				l.fail(fmt.Errorf("session %d: %w", s, err))
				return
			}
			defer c.Close()
			var sampler *dem.Sampler
			if cfg.DEM != nil {
				sampler = dem.NewSampler(cfg.DEM, cfg.P, SampleSeed(h.StreamSeed))
			}
			if cfg.Window > 0 {
				l.streams(c, s, sampler, perSession)
			} else {
				l.batches(c, s, sampler, perSession)
			}
		}(s)
	}
	wg.Wait()
	l.res.Wall = time.Since(t0)
	return l.res, errors.Join(l.errs...)
}

// loadRun is one DriveLoad run's shared accounting.
type loadRun struct {
	cfg      LoadConfig
	interval time.Duration // open-loop arrival interval per session

	mu   sync.Mutex
	res  LoadResult
	errs []error
}

func (l *loadRun) fail(err error) {
	l.mu.Lock()
	l.errs = append(l.errs, err)
	l.mu.Unlock()
}

// lost records a batch or stream lost to a session error.
func (l *loadRun) lost(err error) {
	l.mu.Lock()
	l.res.FailedBatches++
	l.errs = append(l.errs, err)
	l.mu.Unlock()
}

// pace holds the open-loop schedule even when responses lag.
func (l *loadRun) pace(next *time.Time) {
	if l.interval <= 0 {
		return
	}
	if d := time.Until(*next); d > 0 {
		time.Sleep(d)
	}
	*next = next.Add(l.interval)
}

func (l *loadRun) record(rtt time.Duration, resps []Response) {
	l.mu.Lock()
	defer l.mu.Unlock()
	res := &l.res
	res.ClientLat = append(res.ClientLat, rtt)
	for _, resp := range resps {
		if resp.Shed {
			res.Shed++
			continue
		}
		res.Decoded++
		res.ServerLat = append(res.ServerLat, resp.Latency)
		if !resp.Success {
			res.DecodeFailures++
		}
		if resp.Failed {
			res.LogicalFailures++
		}
	}
}

// batches is one session of the batch plane: n syndromes in batches of
// BatchSize, one batch in flight (closed loop) or submitted on the
// open-loop schedule with responses awaited concurrently.
func (l *loadRun) batches(c *Client, s int, sampler *dem.Sampler, n int) {
	cfg := l.cfg
	var buf []gf2.Vec
	if !cfg.ServerSample {
		buf = make([]gf2.Vec, cfg.BatchSize)
		for i := range buf {
			buf[i] = gf2.NewVec(cfg.DEM.NumDets)
		}
	}
	await := func(pend *Pending, sendT time.Time) bool {
		resps, err := pend.Wait()
		if err != nil {
			l.lost(fmt.Errorf("session %d: wait: %w", s, err))
			return false
		}
		l.record(time.Since(sendT), resps)
		// record only copies scalar fields out of resps, so the Pending
		// (and its ErrHat arenas) can back a later batch
		c.Release(pend)
		return true
	}
	var pending sync.WaitGroup
	defer pending.Wait()
	next := time.Now()
	for sent := 0; sent < n; {
		k := min(cfg.BatchSize, n-sent)
		if !cfg.ServerSample {
			for i := 0; i < k; i++ {
				syn, _ := sampler.SampleShared()
				buf[i].CopyFrom(syn)
			}
		}
		l.pace(&next)
		sendT := time.Now()
		var pend *Pending
		var err error
		if cfg.ServerSample {
			pend, err = c.SubmitSample(k)
		} else {
			pend, err = c.Submit(buf[:k])
		}
		if err != nil {
			l.fail(fmt.Errorf("session %d: %w", s, err))
			return
		}
		sent += k
		if l.interval > 0 {
			pending.Add(1)
			go func() {
				defer pending.Done()
				await(pend, sendT)
			}()
		} else if !await(pend, sendT) {
			return
		}
	}
}

// streams is one session of the stream plane: n streams, each one sampled
// multi-round syndrome sent round by round (on the open-loop schedule,
// paced per round), with every commit timed as it arrives.
func (l *loadRun) streams(c *Client, s int, sampler *dem.Sampler, n int) {
	var rounds []gf2.Vec
	next := time.Now()
	for shot := 0; shot < n; shot++ {
		st, err := c.OpenStream(l.cfg.Window, l.cfg.Commit)
		if err != nil {
			l.lost(fmt.Errorf("session %d stream %d: %w", s, shot, err))
			return
		}
		if rounds == nil {
			rounds = make([]gf2.Vec, st.NumRounds())
			for ri := range rounds {
				rounds[ri] = gf2.NewVec(st.RoundDets(ri))
			}
		}
		syn, _ := sampler.SampleShared()
		off := 0
		for _, rv := range rounds {
			rv.Zero()
			for i := 0; i < rv.Len(); i++ {
				if syn.Get(off + i) {
					rv.Set(i, true)
				}
			}
			off += rv.Len()
		}

		spans := st.Spans()
		var sendMu sync.Mutex
		sendT := make([]time.Time, len(rounds))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				cm, err := st.NextCommit()
				if err != nil {
					return // Finish reports it
				}
				recvT := time.Now()
				sendMu.Lock()
				sent := sendT[spans[cm.Window].End-1]
				sendMu.Unlock()
				l.mu.Lock()
				l.res.ServerLat = append(l.res.ServerLat, cm.Latency)
				l.res.ClientLat = append(l.res.ClientLat, recvT.Sub(sent))
				l.res.Windows++
				l.mu.Unlock()
				if cm.Final {
					return
				}
			}
		}()
		for ri := range rounds {
			l.pace(&next)
			sendMu.Lock()
			sendT[ri] = time.Now()
			sendMu.Unlock()
			if err = st.SendRounds(rounds[ri : ri+1]); err != nil {
				c.Close() // the session is lost; this also ends the commit reader
				break
			}
		}
		<-done
		var res StreamResult
		if err == nil {
			res, err = st.Finish()
		}
		if err != nil {
			l.lost(fmt.Errorf("session %d stream %d: %w", s, shot, err))
			return
		}
		l.mu.Lock()
		l.res.Decoded++
		if !res.Success {
			l.res.DecodeFailures++
		}
		if s == 0 && shot == 0 {
			l.res.FirstStream = res.ErrHat
			l.res.FirstCommit = st.CommitRounds()
		}
		l.mu.Unlock()
	}
}
