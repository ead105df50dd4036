package service

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/frame"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/obs"
	"bpsf/internal/sim"
)

// Options configures a Server. Zero values select the defaults noted on
// each field.
type Options struct {
	// PoolSize is the number of warm decoders (= worker goroutines) per
	// pool (default runtime.NumCPU()).
	PoolSize int
	// QueueDepth bounds each pool's admission queue (default 1024).
	QueueDepth int
	// MaxBatch caps adaptive batch coalescing (default 32).
	MaxBatch int
	// AllowedKinds restricts the decoder kinds sessions may request (the
	// bpsf-serve -decoders flag); empty allows every registered kind.
	AllowedKinds []string
	// StreamWindow/StreamCommit are the window and commit round counts
	// applied to StreamOpen frames that leave them zero (defaults 3 and 1;
	// the bpsf-serve -window/-commit flags).
	StreamWindow int
	StreamCommit int
	// IdleTimeout bounds the gap between two client frames on a session:
	// a session whose client sends nothing for this long is dropped, so a
	// stalled or vanished peer cannot pin its goroutine (and its arenas)
	// forever. 0 disables (the pre-PR10 behavior).
	IdleTimeout time.Duration
	// WriteTimeout bounds one socket flush toward the client; a peer that
	// stops reading its replies is dropped after this long. 0 disables.
	WriteTimeout time.Duration
	// Logf receives serve-loop diagnostics (nil = silent).
	Logf func(format string, args ...interface{})
}

// kindAllowed reports whether a session may open pools of the given
// decoder kind.
func (o Options) kindAllowed(kind string) bool {
	if len(o.AllowedKinds) == 0 {
		return true
	}
	for _, k := range o.AllowedKinds {
		if k == kind {
			return true
		}
	}
	return false
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = runtime.NumCPU()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.StreamWindow <= 0 {
		o.StreamWindow = 3
	}
	if o.StreamCommit <= 0 {
		o.StreamCommit = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...interface{}) {}
	}
	return o
}

const (
	// sessionPipeline bounds the reply backlog per session: a client may
	// have at most this many unanswered batches in flight before its read
	// loop stalls.
	sessionPipeline = 64
)

// demEntry / poolEntry are singleflight cache slots: concurrent sessions
// asking for the same DEM or pool block on one build.
type demEntry struct {
	once sync.Once
	d    *dem.DEM
	err  error
}

type poolEntry struct {
	once sync.Once
	// p is atomic because Stats and the drain read it without the Once,
	// possibly while a session's first Hello is still building it.
	p   atomic.Pointer[pool]
	err error
}

// Server is the streaming decode service. Create with NewServer, start
// with Listen, stop with Drain.
type Server struct {
	opts  Options
	start time.Time

	// Acceptor binds the listeners and runs and drains the sessions.
	*Acceptor
	pools       sync.Map // pool key → *poolEntry
	dems        sync.Map // code/rounds → *demEntry
	windowPools sync.Map // pool key + W/C → *windowPoolEntry
	nextSession atomic.Uint64

	// Observability plane (DESIGN.md §10): plain atomic counters, stages
	// the per-request stage histograms (admit/queue/coalesce/decode/write)
	// with the slowest requests served on /statusz, and streamStages the
	// per-commit decode/write timings. The embedded Admin serves them
	// (ServeAdmin).
	*Admin
	sessionsTotal  atomic.Uint64
	sessionsActive atomic.Int64
	statsRequests  atomic.Uint64
	streamsOpened  atomic.Uint64
	windowsDecoded atomic.Uint64
	stages         obs.StageSet
	streamStages   obs.StageSet

	// arena is written per frame by every session; it sits away from the
	// stage sets' locks.
	arena arenaCounters
}

// arenaCounters is the bpsf_arena_* family: the service path's
// buffer-arena economy (DESIGN.md §13). Ratios to read off it:
// frameGrows/frameReads is the arena miss rate (should fall to ~0 at
// steady state), jobsFresh/(jobsFresh+jobsReused) likewise for the
// reply-job free lists, and writeFrames/writeFlushes is the socket-write
// coalescing factor (>1 means batched flushes are doing their job).
type arenaCounters struct {
	// frameReads counts frames read through a reusable arena buffer;
	// frameGrows counts the subset that had to grow the buffer.
	frameReads, frameGrows atomic.Uint64
	// jobsReused / jobsFresh count reply-job acquisitions served from the
	// session free list vs freshly allocated.
	jobsReused, jobsFresh atomic.Uint64
	// writeFrames counts reply frames buffered for write; writeFlushes
	// counts the socket flushes that carried them.
	writeFrames, writeFlushes atomic.Uint64
}

// NewServer builds a server; pools are created lazily on the first Hello
// naming them.
func NewServer(opts Options) *Server {
	s := &Server{opts: opts.withDefaults(), start: time.Now()}
	s.Acceptor = NewAcceptor(s.session, s.closePools, s.opts.Logf)
	s.Admin = NewAdmin(s.Snapshot, s.writeLocalMetrics)
	return s
}

// writeLocalMetrics writes the families only a server has, beside the
// shared snapshot families on /metrics.
func (s *Server) writeLocalMetrics(p *obs.PromWriter) {
	p.Counter("bpsf_stats_requests_total", s.statsRequests.Load())
	p.Counter("bpsf_arena_frame_reads_total", s.arena.frameReads.Load())
	p.Counter("bpsf_arena_frame_grows_total", s.arena.frameGrows.Load())
	p.Counter("bpsf_arena_jobs_reused_total", s.arena.jobsReused.Load())
	p.Counter("bpsf_arena_jobs_fresh_total", s.arena.jobsFresh.Load())
	p.Counter("bpsf_arena_write_frames_total", s.arena.writeFrames.Load())
	p.Counter("bpsf_arena_write_flushes_total", s.arena.writeFlushes.Load())
}

// Drain is the graceful shutdown: stop accepting, wait up to grace for
// live sessions to finish, force-close stragglers, then stop every pool —
// pool workers complete all admitted work before exiting. The admin
// listener (ServeAdmin), when present, closes too. Returns the final
// per-pool stats.
func (s *Server) Drain(grace time.Duration) []PoolStats {
	s.Acceptor.Drain(grace)
	return s.Stats()
}

// closePools is the server's tail of a drain, run once every session has
// ended.
func (s *Server) closePools() {
	s.pools.Range(func(_, v interface{}) bool {
		if p := v.(*poolEntry).p.Load(); p != nil {
			p.close()
		}
		return true
	})
	s.CloseAdmin()
}

// StreamingStats snapshots the server's cumulative windowed-stream
// counters.
func (s *Server) StreamingStats() StreamStats {
	return StreamStats{
		Opened:  s.streamsOpened.Load(),
		Windows: s.windowsDecoded.Load(),
	}
}

// Stats snapshots every pool, sorted by pool key so output is stable.
func (s *Server) Stats() []PoolStats {
	var out []PoolStats
	s.pools.Range(func(_, v interface{}) bool {
		if p := v.(*poolEntry).p.Load(); p != nil {
			out = append(out, p.stats())
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pool < out[j].Pool })
	return out
}

// demFor builds (or reuses) the memory-experiment DEM for code/rounds.
func (s *Server) demFor(codeName string, rounds int) (*dem.DEM, error) {
	key := fmt.Sprintf("%s/%d", codeName, rounds)
	v, _ := s.dems.LoadOrStore(key, &demEntry{})
	e := v.(*demEntry)
	e.once.Do(func() {
		css, err := codes.Get(codeName)
		if err != nil {
			e.err = err
			return
		}
		circ, err := memexp.Build(css, rounds, memexp.Uniform())
		if err != nil {
			e.err = err
			return
		}
		e.d, e.err = dem.Extract(circ)
	})
	return e.d, e.err
}

func poolKey(h Hello) string {
	return fmt.Sprintf("%s/r%d/p%g/%s", h.Code, h.Rounds, h.P, h.Spec)
}

// poolFor resolves a Hello to its warm pool, building the DEM and the
// decoders on first use (subsequent sessions share them).
func (s *Server) poolFor(h Hello) (*pool, error) {
	key := poolKey(h)
	v, _ := s.pools.LoadOrStore(key, &poolEntry{})
	e := v.(*poolEntry)
	e.once.Do(func() {
		d, err := s.demFor(h.Code, h.Rounds)
		if err != nil {
			e.err = err
			return
		}
		priors := d.Priors(h.P)
		mk := func() (sim.Decoder, error) { return h.Spec.NewDecoder(d.H, priors) }
		p, err := newPool(key, d, mk, poolOptions{
			size:       s.opts.PoolSize,
			queueDepth: s.opts.QueueDepth,
			maxBatch:   s.opts.MaxBatch,
		})
		if err != nil {
			e.err = err
			return
		}
		e.p.Store(p)
		s.opts.Logf("pool %s: %d warm decoders ready", key, s.opts.PoolSize)
	})
	return e.p.Load(), e.err
}

// ValidateHello checks a Hello and resolves catalog defaults (zero Rounds
// becomes the code's default). The server runs it before building pools,
// the client before dialing, and the fleet gateway before hashing the
// session key, so the key and the backend's pool key agree on the round
// count.
func ValidateHello(h Hello) (Hello, error) {
	entry, ok := codes.Catalog()[h.Code]
	if !ok {
		return h, fmt.Errorf("service: unknown code %q (known: %v)", h.Code, codes.Names())
	}
	if h.Rounds == 0 {
		h.Rounds = entry.Rounds
	}
	if h.Rounds < 1 || h.Rounds > 65535 {
		return h, fmt.Errorf("service: rounds %d out of range [1, 65535]", h.Rounds)
	}
	if err := sim.CheckP(h.P); err != nil {
		return h, fmt.Errorf("service: %w", err)
	}
	if h.Deadline < 0 {
		return h, fmt.Errorf("service: negative deadline")
	}
	if _, err := wireKind(h.Spec); err != nil {
		return h, err
	}
	return h, h.Spec.Validate()
}

// batchJob is one batch's in-flight state: the responses under fill by
// pool workers, the per-request stage spans (recorded by the reply
// writer once the reply frame is flushed), the embedded request slots
// the pool decodes from, and the barrier the reply writer waits on.
// pending mirrors the WaitGroup as a peekable count: the reply writer
// reads it to decide whether the next queued reply will complete without
// blocking (join the current coalesced socket flush) or not (flush now).
// A job with stats set is a telemetry barrier instead: the writer
// answers it with a fresh ServerSnapshot, so the snapshot provably
// includes every batch the session submitted before the stats request —
// the reconciliation guarantee Client.Stats documents.
//
// Jobs live on a per-session free list (DESIGN.md §13): the reply writer
// recycles a job after its frame is flushed, and the read loop's next
// batch reuses the job's Response slice (each Response keeping its ErrHat
// capacity), span slice, and request slots (each keeping its syndrome
// vector) — so a warm session's request round-trip allocates nothing.
type batchJob struct {
	id      uint64
	wg      sync.WaitGroup
	pending atomic.Int32
	resps   []Response
	spans   []obs.Span
	reqs    []request
	stats   bool
}

// sized readies the job for n requests, growing each slice only past its
// high-water mark and resetting reused entries: responses are zeroed with
// their ErrHat capacity kept (a recycled Response must not leak a stale
// Shed flag or estimate into the next batch), spans are re-begun by the
// read loop, request slots are overwritten field-by-field at submit.
func (job *batchJob) sized(n int) *batchJob {
	job.stats = false
	job.wg.Add(n)
	job.pending.Store(int32(n))

	resps := job.resps[:cap(job.resps)]
	for len(resps) < n {
		resps = append(resps, Response{})
	}
	job.resps = resps[:n]
	for i := range job.resps {
		eh := job.resps[i].ErrHat
		job.resps[i] = Response{ErrHat: eh[:0]}
	}

	spans := job.spans[:cap(job.spans)]
	for len(spans) < n {
		spans = append(spans, obs.Span{})
	}
	job.spans = spans[:n]

	reqs := job.reqs[:cap(job.reqs)]
	for len(reqs) < n {
		reqs = append(reqs, request{})
	}
	job.reqs = reqs[:n]
	return job
}

// read takes a session's next frame from conn and counts it: every frame
// goes through the Conn's arena, and one that outgrew it is a miss.
func (a *arenaCounters) read(conn *Conn) ([]byte, error) {
	payload, err := conn.Read()
	if err == nil {
		a.frameReads.Add(1)
		if conn.grew {
			a.frameGrows.Add(1)
		}
	}
	return payload, err
}

func (s *Server) session(nc net.Conn) {
	s.sessionsTotal.Add(1)
	s.sessionsActive.Add(1)
	defer s.sessionsActive.Add(-1)
	arena := &s.arena

	// the reply-writer goroutine and the read loop both write to conn
	conn := NewConn(nc, s.opts.IdleTimeout, s.opts.WriteTimeout)
	fail := func(err error) {
		conn.Write(AppendError(nil, err.Error()))
		s.opts.Logf("session %s: %v", nc.RemoteAddr(), err)
	}

	payload, err := arena.read(conn)
	if err != nil {
		s.opts.Logf("session %s: hello read: %v", nc.RemoteAddr(), err)
		return
	}
	h, err := ParseHello(payload)
	if err == nil {
		h, err = ValidateHello(h)
	}
	if err == nil && !s.opts.kindAllowed(h.Spec.Kind) {
		err = fmt.Errorf("service: decoder kind %q not served here (allowed: %v)", h.Spec.Kind, s.opts.AllowedKinds)
	}
	if err != nil {
		fail(err)
		return
	}
	p, err := s.poolFor(h)
	if err != nil {
		fail(err)
		return
	}

	id := s.nextSession.Add(1)
	detBytes := (p.dem.NumDets + 7) / 8
	mechBytes := (p.dem.NumMechs() + 7) / 8
	ack := helloAck{
		sessionID: id,
		numDets:   uint32(p.dem.NumDets),
		numMechs:  uint32(p.dem.NumMechs()),
		poolSize:  uint16(p.opts.size),
	}
	if err := conn.Write(appendHelloAck(nil, ack)); err != nil {
		return
	}

	// Reply writer: batches complete out of order across pool workers, but
	// replies go back in submission order — the channel is the order, the
	// WaitGroup the completion barrier. Its capacity bounds the session's
	// pipelining. Socket writes are coalesced (DESIGN.md §13): a reply
	// frame is buffered, and the flush is deferred while the next queued
	// job is already complete (peeked via job.pending), so a burst of
	// ready replies rides one syscall. Once a flush lands, the writer
	// closes each covered request's write stage and folds the span into
	// the server's stage set (shed requests
	// are skipped: their spans never reached the decode stage), then
	// recycles the job onto the session free list.
	jobs := make(chan *batchJob, sessionPipeline)
	freeJobs := make(chan *batchJob, sessionPipeline+2)
	getJob := func(n int) *batchJob {
		var job *batchJob
		select {
		case job = <-freeJobs:
			arena.jobsReused.Add(1)
		default:
			job = &batchJob{}
			arena.jobsFresh.Add(1)
		}
		return job.sized(n)
	}
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		var writeErr error
		buf := make([]byte, 0, batchHeaderLen)
		unflushed := make([]*batchJob, 0, 8)
		recycle := func(job *batchJob) {
			select {
			case freeJobs <- job:
			default: // free list full; let the GC have it
			}
		}
		flush := func() {
			if len(unflushed) == 0 {
				return
			}
			if writeErr == nil {
				writeErr = conn.Flush()
				arena.writeFlushes.Add(1)
			}
			flushT := time.Now()
			for _, job := range unflushed {
				if writeErr == nil {
					for i := range job.spans {
						if job.resps[i].Shed {
							continue
						}
						sp := &job.spans[i]
						sp.Mark(obs.StageWrite, flushT)
						s.stages.Record(sp)
					}
				}
				recycle(job)
			}
			unflushed = unflushed[:0]
		}
		for {
			var job *batchJob
			var ok bool
			if len(unflushed) > 0 {
				// frames are buffered: push them to the socket before blocking
				select {
				case job, ok = <-jobs:
				default:
					flush()
					job, ok = <-jobs
				}
			} else {
				job, ok = <-jobs
			}
			if !ok {
				flush()
				return
			}
			if len(unflushed) > 0 && job.pending.Load() != 0 {
				// the next reply is not ready: flush while we wait for it
				flush()
			}
			job.wg.Wait()
			if writeErr != nil {
				recycle(job)
				continue // connection is gone; keep draining barriers
			}
			if job.stats {
				// telemetry barrier: flush first so every earlier job's span
				// is folded into the stage histograms, then snapshot — the
				// reply provably reconciles with the session's history. The
				// reply reuses the writer's scratch buffer — the pre-PR10
				// writer rebuilt it from nil on every barrier.
				flush()
				buf = AppendStatsReply(buf[:0], s.Snapshot())
			} else {
				buf = appendBatchReplyHeader(buf[:0], job.id, len(job.resps))
				for i := range job.resps {
					buf = appendResponse(buf, &job.resps[i], mechBytes)
				}
			}
			writeErr = conn.Buffer(buf)
			arena.writeFrames.Add(1)
			unflushed = append(unflushed, job)
		}
	}()

	// Read loop: frames arrive in stream order, so the per-session request
	// index — and with it every RequestSeed — is a pure function of the
	// syndrome stream. Windowed streams (StreamOpen/StreamRounds) coexist
	// with batches on the same connection: batches go through the warm
	// pools, stream windows decode inline in this goroutine (bounded work
	// per round) with their commits written through the shared Conn.
	reqIndex := 0
	streams := newSessionStreams(s, h, p.dem.NumMechs())
	defer streams.closeAll()
	maxBatch := batchLimit(DefaultMaxFrame, p.dem.NumDets, p.dem.NumMechs())
	// fill readies request slot i of a job for admission: the embedded
	// slots and their syndrome vectors are recycled with the job, so a
	// warm session admits without allocating.
	fill := func(job *batchJob, i int, frameT time.Time) *request {
		rq := &job.reqs[i]
		if rq.syndrome.Len() != p.dem.NumDets {
			rq.syndrome = gf2.NewVec(p.dem.NumDets)
		}
		sp := &job.spans[i]
		sp.Begin(frameT)
		now := time.Now()
		sp.Mark(obs.StageAdmit, now)
		rq.seed = RequestSeed(h.StreamSeed, reqIndex)
		rq.enqueued = now
		rq.deadline = h.Deadline
		rq.affinity = int(id)
		rq.wantObs = nil
		rq.resp = &job.resps[i]
		rq.span = sp
		rq.pending = &job.pending
		rq.wg = &job.wg
		reqIndex++
		return rq
	}
	// Server-side sampling state (msgSample): one word-parallel batch
	// sampler per session, built on first use and seeded from the session's
	// StreamSeed, so sampled shot j of the session is a pure function of
	// (Hello, j) — lane j mod 64 of block j/64 — regardless of how requests
	// split the stream. Decoder seeds still advance through reqIndex.
	var sampleCur *frame.Cursor
	var synScratch [][]byte // parseBatchInto view arena, recycled per frame
read:
	for {
		payload, err := arena.read(conn)
		if err != nil {
			break // EOF = client done; anything else ends the session too
		}
		frameT := time.Now()
		switch payload[0] {
		case MsgBatch:
			batchID, syndromes, perr := parseBatchInto(payload, detBytes, synScratch)
			if perr == nil && len(syndromes) > maxBatch {
				perr = fmt.Errorf("service: batch of %d syndromes exceeds session limit %d (reply would overflow the frame guard)",
					len(syndromes), maxBatch)
			}
			if perr != nil {
				fail(perr)
				break read
			}
			synScratch = syndromes
			job := getJob(len(syndromes))
			job.id = batchID
			jobs <- job // reserve the reply slot before admission
			for i, raw := range syndromes {
				rq := fill(job, i, frameT)
				if err := rq.syndrome.SetBytes(raw); err != nil {
					// parseBatchInto already checked lengths; defensive only
					rq.finish()
					continue
				}
				p.submit(rq)
			}
		case MsgSample:
			batchID, count, perr := parseSample(payload)
			if perr == nil && count > maxBatch {
				perr = fmt.Errorf("service: sample request of %d shots exceeds session limit %d (reply would overflow the frame guard)",
					count, maxBatch)
			}
			if perr != nil {
				fail(perr)
				break read
			}
			if sampleCur == nil {
				sampler := frame.NewDEMSampler(p.dem, h.P, SampleSeed(h.StreamSeed))
				sampleCur = frame.NewCursor(sampler.SampleBlock)
			}
			job := getJob(count)
			job.id = batchID
			jobs <- job // reserve the reply slot before admission
			for i := 0; i < count; i++ {
				sb, ob := sampleCur.Next()
				rq := fill(job, i, frameT)
				_ = rq.syndrome.SetBytes(sb) // geometry fixed by the DEM
				// the cursor's block is rewritten 64 lanes at a time: keep a
				// private copy of the ground truth in the slot's arena
				rq.wantBuf = append(rq.wantBuf[:0], ob...)
				rq.wantObs = rq.wantBuf
				p.submit(rq)
			}
		case MsgStats:
			if perr := parseStatsRequest(payload); perr != nil {
				fail(perr)
				break read
			}
			s.statsRequests.Add(1)
			job := getJob(0)
			job.stats = true
			jobs <- job // answered by the reply writer, in order
		case MsgStreamOpen:
			ack, oerr := streams.open(payload)
			if oerr != nil {
				fail(oerr)
				break read
			}
			if err := conn.Write(ack); err != nil {
				break read
			}
		case MsgStreamRounds:
			replies, spans, rerr := streams.rounds(payload, frameT)
			if rerr != nil {
				fail(rerr)
				break read
			}
			for ri, reply := range replies {
				if err := conn.Write(reply); err != nil {
					break read
				}
				// close the commit's write stage and record it: decode was
				// marked at commit emission inside streams.rounds
				spans[ri].Mark(obs.StageWrite, time.Now())
				s.streamStages.Record(&spans[ri])
			}
		default:
			fail(fmt.Errorf("service: unexpected message type %d", payload[0]))
			break read
		}
	}
	close(jobs)
	writerWG.Wait()
}
