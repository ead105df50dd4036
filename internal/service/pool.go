package service

import (
	"sync"
	"sync/atomic"
	"time"

	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/obs"
	"bpsf/internal/sim"
)

// request is one admitted syndrome decode. The syndrome vector is owned by
// the request; resp points into the session's reply buffer and wg is the
// batch's completion barrier. Server-sampled requests additionally carry
// the sampled ground truth (wantObs, packed observable flips), which the
// worker compares against the decoder's prediction to report Failed.
// span, when non-nil, points into the batch job's span slice and accrues
// the request's stage timings (admit/queue/coalesce/decode marked along
// the pool path, write marked by the session's reply writer).
//
// affinity selects the per-worker run queue the request is admitted to
// (lane = affinity mod pool size); sessions pass their session id, so a
// session's requests keep landing on the same warm decoder. pending,
// when non-nil, is the batch job's outstanding-request count — the reply
// writer peeks it to decide whether the next reply can join the current
// coalesced socket flush.
type request struct {
	syndrome gf2.Vec
	seed     int64
	enqueued time.Time
	deadline time.Duration
	affinity int
	wantObs  []byte // nil for client-supplied syndromes
	wantBuf  []byte // wantObs's reusable backing arena (sampled requests)
	resp     *Response
	span     *obs.Span
	pending  *atomic.Int32
	wg       *sync.WaitGroup
}

// finish completes one request: the job's peekable outstanding count
// first (so a writer that observes pending==0 knows every wg.Done of the
// job has been issued or is imminent — wg.Wait is still the barrier),
// then the WaitGroup the reply writer blocks on.
func (r *request) finish() {
	if r.pending != nil {
		r.pending.Add(-1)
	}
	r.wg.Done()
}

type poolOptions struct {
	size       int // warm decoders = worker goroutines
	queueDepth int // bounded admission queue
	maxBatch   int // coalescing cap
}

// pool serves one (code, rounds, p, spec) decode family: size warm
// decoders, each owned by one worker goroutine — the serve-loop shape of
// the paper's P-worker dispatch (sim.ScheduleLatency), with real
// syndromes instead of modeled trials.
//
// Admission is affinity-aware (DESIGN.md §13): every worker owns a small
// local run queue and the pool keeps one shared overflow queue. A request
// lands on locals[affinity mod size] when there is room, so a session's
// requests keep hitting the same warm decoder (cache-hot priors and
// scratch), and spills to the shared queue under imbalance. Workers
// prefer their local queue, then take whichever of local/shared delivers
// first — work-stealing without a global admission mutex: the admission
// counters are atomics and the only lock left on the hot path is the
// completion-side statistics mutex.
//
// Workers coalesce adaptively: a worker that pops one request also claims
// up to maxBatch−1 more without blocking (local first, then shared),
// scaled to the current backlog, so a deep queue is drained in large
// sweeps (amortizing queue handoffs and letting expired requests shed in
// bulk) while an idle service decodes singles at minimum latency.
//
// Completion statistics (decoded, batch counters, busy time AND the
// latency histogram) live behind one mutex, so Latency.N always equals
// Decoded in a snapshot. Admission counters are atomics; stats() reads
// the completion block first and admitted last, and every shed/decode
// increment happens after its request's admitted increment, so a snapshot
// still can never show more completions than admissions.
type pool struct {
	key  string
	dem  *dem.DEM
	opts poolOptions

	locals  []chan *request // per-worker affinity queues
	shared  chan *request   // overflow queue, stolen by any worker
	workers sync.WaitGroup
	closed  sync.Once

	// admission-path counters: no lock between a session read loop and
	// the queue send
	admitted     atomic.Uint64
	shedQueue    atomic.Uint64
	shedDeadline atomic.Uint64

	mu sync.Mutex
	st poolCounters
}

// poolCounters is the mutex-guarded completion-side statistics block of
// one pool.
type poolCounters struct {
	decoded   uint64
	batches   uint64
	coalesced uint64
	busy      time.Duration // summed worker batch-serve time
	lat       obs.HistData
}

// PoolStats is one pool's cumulative service report, read as one
// coherent snapshot: Decoded + ShedQueue + ShedDeadline never exceeds
// Admitted, and Latency.N == Decoded.
type PoolStats struct {
	// Pool is the pool key: code/rounds/p/spec.
	Pool string
	// Size is the number of warm decoders.
	Size int
	// Admitted counts requests offered to the pool (admitted to the queue
	// or shed at admission). Decoded counts completed decodes; ShedQueue
	// and ShedDeadline count requests dropped on admission overflow and on
	// queue-deadline expiry.
	Admitted, Decoded, ShedQueue, ShedDeadline uint64
	// Batches and Coalesced count worker batch claims and the requests
	// they covered; AvgBatch is their ratio.
	Batches, Coalesced uint64
	AvgBatch           float64
	// Busy is the summed wall-clock time workers spent serving batches;
	// utilization = Busy / (Size × uptime).
	Busy time.Duration
	// Latency is the service-time histogram (queue wait + decode).
	Latency obs.HistSnapshot
}

// newPool builds the warm decoder set up front — every worker owns a fully
// constructed decoder (mk is called size times) before the first request
// is admitted — and starts the workers.
func newPool(key string, d *dem.DEM, mk func() (sim.Decoder, error), opts poolOptions) (*pool, error) {
	localDepth := opts.queueDepth / opts.size
	if localDepth < 1 {
		localDepth = 1
	}
	p := &pool{
		key:    key,
		dem:    d,
		opts:   opts,
		locals: make([]chan *request, opts.size),
		shared: make(chan *request, opts.queueDepth),
	}
	for i := range p.locals {
		p.locals[i] = make(chan *request, localDepth)
	}
	decs := make([]sim.Decoder, opts.size)
	for i := range decs {
		dec, err := mk()
		if err != nil {
			return nil, err
		}
		decs[i] = dec
	}
	for i, dec := range decs {
		p.workers.Add(1)
		go p.worker(p.locals[i], dec)
	}
	return p, nil
}

// submit admits one request onto its affinity lane, spilling to the
// shared queue when the lane is full. Sessions without a deadline get
// backpressure (the enqueue blocks, which stalls that session's read loop
// and ultimately its TCP stream); sessions with a deadline are admitted
// non-blocking and shed immediately when both queues are full. The
// admission path takes no lock — the counters are atomics.
func (p *pool) submit(r *request) {
	p.admitted.Add(1)
	lane := r.affinity % len(p.locals)
	if lane < 0 {
		lane += len(p.locals)
	}
	local := p.locals[lane]
	select {
	case local <- r:
		return
	default:
	}
	if r.deadline > 0 {
		select {
		case p.shared <- r:
		default:
			r.resp.Shed = true
			p.shedQueue.Add(1)
			r.finish()
		}
		return
	}
	select {
	case local <- r:
	case p.shared <- r:
	}
}

func (p *pool) worker(local chan *request, dec sim.Decoder) {
	defer p.workers.Done()
	shared := p.shared
	batch := make([]*request, 0, p.opts.maxBatch)
	// per-worker scratch for the sampled-request observable comparison
	// (nil-DEM stub pools never see sampled requests)
	numObs := 0
	if p.dem != nil {
		numObs = p.dem.NumObs
	}
	obsHat := gf2.NewVec(numObs)
	obsWant := gf2.NewVec(numObs)
	// A drained+closed queue is disabled by nilling it (a nil channel
	// never delivers), so close never spins the select; the worker exits
	// once both queues are gone.
	for local != nil || shared != nil {
		var first *request
		var ok bool
		// prefer affinity work without blocking before stealing
		if local != nil {
			select {
			case first, ok = <-local:
				if !ok {
					local = nil
					continue
				}
			default:
			}
		}
		if first == nil {
			select {
			case first, ok = <-local:
				if !ok {
					local = nil
					continue
				}
			case first, ok = <-shared:
				if !ok {
					shared = nil
					continue
				}
			}
		}
		batch = p.coalesce(batch[:0], first, local, shared)
		claimT := time.Now()
		for _, r := range batch {
			// queue stage ends for the whole claim at once; the wait behind
			// earlier batch siblings lands in the coalesce stage
			r.span.Mark(obs.StageQueue, claimT)
		}
		for _, r := range batch {
			p.serve(dec, r, obsHat, obsWant)
		}
		p.mu.Lock()
		p.st.batches++
		p.st.coalesced += uint64(len(batch))
		p.st.busy += time.Since(claimT)
		p.mu.Unlock()
	}
}

// coalesce claims the batch for one worker pass: the blocking first
// request plus, without blocking, up to target−1 more — affinity queue
// first, then the shared queue — where the target grows with the backlog
// observed at claim time (capped at maxBatch). Either channel may be nil
// (disabled after close) or closed; both simply end the claim.
func (p *pool) coalesce(batch []*request, first *request, local, shared chan *request) []*request {
	batch = append(batch, first)
	target := 1 + len(local) + len(shared)
	if target > p.opts.maxBatch {
		target = p.opts.maxBatch
	}
	for len(batch) < target {
		select {
		case r, ok := <-local:
			if !ok {
				return batch
			}
			batch = append(batch, r)
		default:
			select {
			case r, ok := <-shared:
				if !ok {
					return batch
				}
				batch = append(batch, r)
			default:
				return batch
			}
		}
	}
	return batch
}

func (p *pool) serve(dec sim.Decoder, r *request, obsHat, obsWant gf2.Vec) {
	wait := time.Since(r.enqueued)
	if r.deadline > 0 && wait > r.deadline {
		r.resp.Shed = true
		p.shedDeadline.Add(1)
		r.finish()
		return
	}
	sim.Reseed(dec, r.seed)
	t0 := time.Now()
	r.span.Mark(obs.StageCoalesce, t0)
	out := dec.Decode(r.syndrome)
	r.resp.Success = out.Success
	r.resp.Iterations = out.Iterations
	r.resp.FlipCount = out.ErrHat.Weight()
	r.resp.ErrHat = out.ErrHat.AppendBytes(r.resp.ErrHat[:0])
	if r.wantObs != nil && p.dem != nil {
		// server-sampled shot: report the logical verdict against the
		// sampled ground truth (the one rule shared with sim's circuit
		// paths, decoding.LogicalFailed)
		_ = obsWant.SetBytes(r.wantObs) // length fixed by the session DEM
		r.resp.Failed = sim.LogicalFailed(p.dem.Obs, out, obsWant, obsHat)
	}
	t1 := time.Now()
	r.span.Mark(obs.StageDecode, t1)
	r.resp.Latency = wait + t1.Sub(t0)
	p.mu.Lock()
	p.st.decoded++
	p.st.lat.Observe(r.resp.Latency)
	p.mu.Unlock()
	r.finish()
}

// close stops the pool after the last session has exited: workers drain
// every queued request (no admitted work is dropped by shutdown) and then
// terminate.
func (p *pool) close() {
	p.closed.Do(func() {
		for _, q := range p.locals {
			close(q)
		}
		close(p.shared)
	})
	p.workers.Wait()
}

// stats takes a coherent snapshot: the completion block under the
// statistics mutex first, the admission atomics after. Every completion
// (decode or shed) happens-after its own admission increment, so reading
// admitted last guarantees Decoded + ShedQueue + ShedDeadline ≤ Admitted
// even against concurrent traffic; Latency.N == Decoded holds because
// both live under the mutex.
func (p *pool) stats() PoolStats {
	p.mu.Lock()
	st := PoolStats{
		Pool:      p.key,
		Size:      p.opts.size,
		Decoded:   p.st.decoded,
		Batches:   p.st.batches,
		Coalesced: p.st.coalesced,
		Busy:      p.st.busy,
		Latency:   p.st.lat.Snapshot(),
	}
	p.mu.Unlock()
	st.ShedQueue = p.shedQueue.Load()
	st.ShedDeadline = p.shedDeadline.Load()
	st.Admitted = p.admitted.Load()
	if st.Batches > 0 {
		st.AvgBatch = float64(st.Coalesced) / float64(st.Batches)
	}
	return st
}
