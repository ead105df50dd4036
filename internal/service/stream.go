package service

import (
	"fmt"
	"sync"
	"time"

	"bpsf/internal/codes"
	"bpsf/internal/decoding"
	"bpsf/internal/gf2"
	"bpsf/internal/obs"
	"bpsf/internal/window"
)

// windowPool is the warm windowed-decoder cache behind one
// (code, rounds, p, spec, W, C) stream family. Windowed decoders are
// expensive to build (one inner decoder per window) and single-stream by
// design, so finished streams return them to a free list for the next
// StreamOpen instead of rebuilding — the streaming counterpart of the
// batch pools' warm decoders.
type windowPool struct {
	key     string
	layout  window.Layout
	mk      func() (*window.Decoder, error)
	maxFree int // free-list cap (the batch pools' PoolSize); overflow is dropped

	mu   sync.Mutex
	free []*window.Decoder
}

// acquire returns a warm decoder, building one on a cold start.
func (p *windowPool) acquire() (*window.Decoder, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		d := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return d, nil
	}
	p.mu.Unlock()
	return p.mk()
}

// release returns a decoder to the free list, or drops it once the list
// holds maxFree warm decoders — a concurrent-stream burst must not pin
// its peak decoder count in memory forever.
func (p *windowPool) release(d *window.Decoder) {
	p.mu.Lock()
	if len(p.free) < p.maxFree {
		p.free = append(p.free, d)
	}
	p.mu.Unlock()
}

type windowPoolEntry struct {
	once sync.Once
	p    *windowPool
	err  error
}

// windowPoolFor resolves a session Hello and (W, C) to its warm windowed
// pool, building layout and first decoder lazily like poolFor does for
// batch pools.
func (s *Server) windowPoolFor(h Hello, w, c int) (*windowPool, error) {
	key := fmt.Sprintf("%s/W%d/C%d", poolKey(h), w, c)
	v, _ := s.windowPools.LoadOrStore(key, &windowPoolEntry{})
	e := v.(*windowPoolEntry)
	e.once.Do(func() {
		d, err := s.demFor(h.Code, h.Rounds)
		if err != nil {
			e.err = err
			return
		}
		css, err := codes.Get(h.Code)
		if err != nil {
			e.err = err
			return
		}
		layout := window.MemexpLayout(css, h.Rounds)
		if err := layout.Validate(d.NumDets); err != nil {
			e.err = err
			return
		}
		priors := d.Priors(h.P)
		e.p = &windowPool{
			key:     key,
			layout:  layout,
			maxFree: s.opts.PoolSize,
			mk: func() (*window.Decoder, error) {
				return window.New(d.H, priors, layout, w, c, decoding.Factory(h.Spec.NewDecoder))
			},
		}
		// warm the first decoder so StreamOpen fails fast on bad specs
		dec, err := e.p.mk()
		if err != nil {
			e.p, e.err = nil, err
			return
		}
		e.p.release(dec)
		s.opts.Logf("stream pool %s: warm windowed decoder ready (%d windows)", key, len(dec.Spans()))
	})
	return e.p, e.err
}

// StreamStats is the server's cumulative streaming report. Per-commit
// latency is ServerSnapshot.StreamStages' decode stage.
type StreamStats struct {
	// Opened counts accepted StreamOpens; Windows counts decoded windows
	// across all streams.
	Opened, Windows uint64
}

// serverStream is one live stream's per-session state.
type serverStream struct {
	id   uint64
	pool *windowPool
	dec  *window.Decoder
	st   *window.Stream

	detsPerRound []int
	roundBits    []gf2.Vec // reusable round scratch, one per distinct round width
	mechVec      gf2.Vec   // reusable committed-mechanism bitmap
}

// roundVec returns the stream's scratch vector of n bits.
func (strm *serverStream) roundVec(n int) gf2.Vec {
	for _, v := range strm.roundBits {
		if v.Len() == n {
			return v
		}
	}
	v := gf2.NewVec(n)
	strm.roundBits = append(strm.roundBits, v)
	return v
}

// sessionStreams tracks the windowed streams of one connection; accessed
// only from the session read goroutine.
type sessionStreams struct {
	srv     *Server
	hello   Hello
	streams map[uint64]*serverStream
	nextID  uint64
	numMech int

	// Per-frame scratch that rounds reuses, so a warm stream decodes
	// without allocating: the parsed round views, the commit replies
	// (each keeping its buffer) and their spans, and the packed bitmap.
	roundViews [][]byte
	replies    [][]byte
	spans      []obs.Span
	mechBytes  []byte
}

func newSessionStreams(srv *Server, h Hello, numMechs int) *sessionStreams {
	return &sessionStreams{srv: srv, hello: h, streams: make(map[uint64]*serverStream), numMech: numMechs}
}

// open handles a StreamOpen frame and returns the ack payload.
func (ss *sessionStreams) open(payload []byte) ([]byte, error) {
	w, c, err := parseStreamOpen(payload)
	if err != nil {
		return nil, err
	}
	// zero fields resolve to the server defaults independently (the
	// default commit clamps to an explicit smaller window); explicit
	// inconsistent pairs are rejected below, never silently rewritten
	if w == 0 {
		w = ss.srv.opts.StreamWindow
	}
	if c == 0 {
		c = ss.srv.opts.StreamCommit
		if c > w {
			c = w
		}
	}
	if w < 1 || w > 65535 || c < 1 || c > w {
		return nil, fmt.Errorf("service: stream needs 1 ≤ commit ≤ window ≤ 65535, got window=%d commit=%d", w, c)
	}
	pool, err := ss.srv.windowPoolFor(ss.hello, w, c)
	if err != nil {
		return nil, err
	}
	dec, err := pool.acquire()
	if err != nil {
		return nil, err
	}
	id := ss.nextID
	ss.nextID++
	// Stream id doubles as the determinism index: stream j of a session is
	// reseeded with RequestSeed(StreamSeed, j), so a replayed session
	// reproduces every commit byte for byte.
	dec.Reseed(RequestSeed(ss.hello.StreamSeed, int(id)))
	st := dec.NewStream()
	layout := dec.Layout()
	dets := make([]int, layout.NumRounds())
	strm := &serverStream{
		id: id, pool: pool, dec: dec, st: st,
		detsPerRound: dets,
		mechVec:      gf2.NewVec(ss.numMech),
	}
	for r := range dets {
		dets[r] = layout.RoundDets(r)
		strm.roundVec(dets[r])
	}
	ss.streams[id] = strm
	ss.srv.streamsOpened.Add(1)
	return appendStreamAck(nil, streamAck{id: id, window: w, commit: c, detsPerRound: dets}), nil
}

// rounds handles a StreamRounds frame: pushes each round into the stream,
// decoding every window the rounds complete, and returns one StreamCommit
// payload per committed window (emitted in order by the caller), plus a
// parallel stage span per commit — decode marked here at commit emission,
// write closed by the caller once the reply frame is flushed, then folded
// into the server's streamStages histograms. Both slices are valid until
// the next call. When the final round arrives the last commit carries the
// Final flag and the whole-stream verdict, and the warm decoder returns
// to its pool.
func (ss *sessionStreams) rounds(payload []byte, recvT time.Time) ([][]byte, []obs.Span, error) {
	r := &reader{b: payload}
	r.u8()
	id := r.u64()
	if r.err != nil {
		return nil, nil, r.err
	}
	strm, ok := ss.streams[id]
	if !ok {
		return nil, nil, fmt.Errorf("service: rounds for unknown stream %d", id)
	}
	_, firstRound, rounds, err := parseStreamRounds(payload, strm.detsPerRound, ss.roundViews)
	if err != nil {
		return nil, nil, err
	}
	ss.roundViews = rounds
	if firstRound != strm.st.NextRound() {
		return nil, nil, fmt.Errorf("service: stream %d expects round %d, got %d (rounds must arrive in order)",
			id, strm.st.NextRound(), firstRound)
	}
	replies, spans := ss.replies[:0], ss.spans[:0]
	for i, raw := range rounds {
		bits := strm.roundVec(strm.detsPerRound[firstRound+i])
		if err := bits.SetBytes(raw); err != nil {
			return nil, nil, err
		}
		commits, err := strm.st.PushRound(bits)
		if err != nil {
			return nil, nil, err
		}
		done := strm.st.Done()
		for ci, cm := range commits {
			flags := byte(0)
			if cm.Success {
				flags |= flagStreamWindowOK
			}
			final := done && ci == len(commits)-1
			if final {
				flags |= flagStreamFinal
				if strm.st.Finish().Success {
					flags |= flagStreamOK
				}
			}
			strm.mechVec.Zero()
			for _, m := range cm.Mechs {
				strm.mechVec.Set(m, true)
			}
			doneT := time.Now()
			lat := doneT.Sub(recvT)
			ss.srv.windowsDecoded.Add(1)
			var sp obs.Span
			sp.Begin(recvT)
			sp.Mark(obs.StageDecode, doneT)
			spans = append(spans, sp)
			ss.mechBytes = strm.mechVec.AppendBytes(ss.mechBytes[:0])
			var buf []byte
			if n := len(replies); n < cap(replies) {
				buf = replies[:n+1][n][:0]
			}
			replies = append(replies, appendStreamCommit(buf, streamCommitMsg{
				id:         id,
				window:     cm.Window,
				flags:      flags,
				firstRound: cm.FirstRound,
				endRound:   cm.EndRound,
				latency:    lat,
				mechs:      ss.mechBytes,
			}))
		}
		if done {
			ss.close(id)
		}
	}
	ss.replies, ss.spans = replies, spans
	return replies, spans, nil
}

// close returns stream id's warm decoder to its pool (idempotent).
func (ss *sessionStreams) close(id uint64) {
	if strm, ok := ss.streams[id]; ok {
		delete(ss.streams, id)
		strm.pool.release(strm.dec)
	}
}

// closeAll releases every live stream (session teardown).
func (ss *sessionStreams) closeAll() {
	for id := range ss.streams {
		ss.close(id)
	}
}
