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

// LoadConfig describes one synthetic batch-traffic run against a decode
// service: the session geometry (code, rounds, p, decoder spec), the load
// model (closed-loop saturation or open-loop fixed arrival rate) and the
// syndrome source (server-side word-parallel batch sampling, or the
// retained client-side scalar sampler uploading packed syndromes).
//
// It is the substrate of cmd/bpsf-load, whose named workload profiles
// lower onto it, and of in-process loopback tests against a Server.
type LoadConfig struct {
	Code   string
	Rounds int // syndrome-extraction rounds (0 = catalog default)
	P      float64
	Spec   Spec

	Sessions  int // concurrent sessions (default 1)
	Shots     int // total syndromes across all sessions
	BatchSize int // syndromes per request batch (default 16)

	// ServerSample selects server-side batch sampling (SubmitSample); when
	// false the client samples scalar shots from DEM and uploads syndromes.
	ServerSample bool
	// DEM is the client-side sampling model; required iff !ServerSample.
	DEM *dem.DEM

	Mode string  // "closed" (default) or "open"
	Rate float64 // total batch arrivals per second (open mode)

	Seed     int64
	Deadline time.Duration // server queue deadline (0 = backpressure)
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
	if !cfg.ServerSample && cfg.DEM == nil {
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

// Validate normalizes the config — defaults, catalog-default rounds —
// and reports configuration mistakes without dialing anything, so CLIs
// fail fast on bad profiles.
func (cfg LoadConfig) Validate() (LoadConfig, error) { return cfg.withDefaults() }

// LoadResult is the accounting of one DriveLoad run. Every submitted
// syndrome is attributed exactly once: decoded, shed, or part of a failed
// batch (a batch whose responses never arrived — counted so overload and
// crash runs cannot under-report).
type LoadResult struct {
	Decoded         int
	Shed            int
	DecodeFailures  int // decoded but the decoder did not satisfy the syndrome
	LogicalFailures int // server-sampled shots with a wrong logical verdict
	FailedBatches   int // batches lost to session errors (responses unaccounted)

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

// DriveLoad runs the batch-traffic load model of cmd/bpsf-load against the
// server at addr and returns the full accounting. Unlike early bpsf-load,
// no failure path is silent: open-loop batches whose Pending.Wait fails
// are counted in FailedBatches and their errors — along with every
// session's dial/submit errors, not just the first — are joined into the
// returned error, so a run that lost responses can never report a clean
// result.
func DriveLoad(addr string, cfg LoadConfig) (LoadResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return LoadResult{}, err
	}

	perSession := (cfg.Shots + cfg.Sessions - 1) / cfg.Sessions
	var interval time.Duration
	if cfg.Mode == "open" {
		// per-session batch arrival interval; sessions are staggered by
		// Dial time so total arrivals approximate Rate
		interval = time.Duration(float64(cfg.Sessions) * float64(cfg.BatchSize) / cfg.Rate * float64(time.Second))
	}

	var mu sync.Mutex
	var res LoadResult
	var errs []error
	addErr := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	record := func(rtt time.Duration, resps []Response) {
		mu.Lock()
		defer mu.Unlock()
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
				addErr(fmt.Errorf("session %d: %w", s, err))
				return
			}
			defer c.Close()
			var sampler *dem.Sampler
			var buf []gf2.Vec
			if !cfg.ServerSample {
				sampler = dem.NewSampler(cfg.DEM, cfg.P, cfg.Seed+int64(s))
				buf = make([]gf2.Vec, cfg.BatchSize)
				for i := range buf {
					buf[i] = gf2.NewVec(cfg.DEM.NumDets)
				}
			}
			var pending sync.WaitGroup
			next := time.Now()
			for sent := 0; sent < perSession; {
				n := cfg.BatchSize
				if perSession-sent < n {
					n = perSession - sent
				}
				if !cfg.ServerSample {
					for i := 0; i < n; i++ {
						syn, _ := sampler.SampleShared()
						buf[i].CopyFrom(syn)
					}
				}
				if interval > 0 {
					// open loop: hold the schedule even when responses lag
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
				}
				sendT := time.Now()
				var pend *Pending
				if cfg.ServerSample {
					pend, err = c.SubmitSample(n)
				} else {
					pend, err = c.Submit(buf[:n])
				}
				if err != nil {
					addErr(fmt.Errorf("session %d: %w", s, err))
					return
				}
				sent += n
				if interval > 0 {
					pending.Add(1)
					go func() {
						defer pending.Done()
						resps, err := pend.Wait()
						if err != nil {
							// the pre-PR6 load generator dropped this error:
							// batches lost mid-open-loop were neither counted
							// nor reported, so -max-shed 0 could pass spuriously
							mu.Lock()
							res.FailedBatches++
							mu.Unlock()
							addErr(fmt.Errorf("session %d: wait: %w", s, err))
							return
						}
						record(time.Since(sendT), resps)
						// record only copies scalar fields out of resps, so the
						// Pending (and its ErrHat arenas) can back a later batch
						c.Release(pend)
					}()
				} else {
					resps, err := pend.Wait()
					if err != nil {
						mu.Lock()
						res.FailedBatches++
						mu.Unlock()
						addErr(fmt.Errorf("session %d: wait: %w", s, err))
						return
					}
					record(time.Since(sendT), resps)
					c.Release(pend)
				}
			}
			pending.Wait()
		}(s)
	}
	wg.Wait()
	res.Wall = time.Since(t0)
	return res, errors.Join(errs...)
}
