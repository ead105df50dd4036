package fleet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"

	"bpsf/internal/service"
)

// Session proxying and zero-loss failover (DESIGN.md §12).
//
// The gateway routes on the Hello and then splices frames, journaling
// every client→backend frame (except stats probes) so the whole session
// can be re-driven onto another backend. The determinism contract makes
// that sound: request seeds derive from (StreamSeed, session-wide
// request index), so a backend replaying the full journal regenerates
// byte-identical decode results — and the gateway ASSERTS that, frame by
// frame, rather than trusting it.
//
// Replies come back on three independently-ordered planes: batch replies
// (the server's reply-writer FIFO), stream acks and stream commits (the
// session read loop, inline). Ordering is deterministic within a plane
// but not across planes, so delivery accounting is per-plane: a count of
// frames already delivered to the client and a running FNV-1a over their
// canonical form (service.AppendCanonicalFrame — latency fields masked, since
// timings are measurements, not results). During replay the first
// delivered[p] regenerated frames of each plane are swallowed and hashed;
// when the count catches up the hashes must match, or the session dies
// with a replay-divergence error. Zero lost sessions therefore implies
// every replayed frame matched its original delivery.

// reply planes, in the order they appear below
const (
	planeBatch  = iota // msgBatchReply
	planeAck           // msgStreamAck
	planeCommit        // msgStreamCommit
	numPlanes
)

func planeOf(t byte) int {
	switch t {
	case service.MsgBatchReply:
		return planeBatch
	case service.MsgStreamAck:
		return planeAck
	case service.MsgStreamCommit:
		return planeCommit
	}
	return -1
}

// hashFrame folds one canonical frame into a running FNV-1a, length
// first so frame boundaries cannot alias.
func hashFrame(h uint64, payload []byte) uint64 {
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], uint32(len(payload)))
	return fnvAdd(fnvAdd(h, lenb[:]), payload)
}

// replayTarget freezes a session's delivery accounting at failover time:
// how many frames of each plane the client has already seen, and the
// hash they must re-produce.
type replayTarget struct {
	count [numPlanes]uint64
	sum   [numPlanes]uint64
}

type session struct {
	g         *Gateway
	key       string
	hello     []byte // the client's Hello frame, replayed first
	geom      service.AckGeometry
	mechBytes int

	// cconn is the client hop: upstream reads it, and the pump and the
	// error paths write to it.
	cconn *service.Conn

	// mu guards the backend link, journal and delivery accounting; held
	// across a whole failover so upstream writes block until the new
	// backend has the full journal.
	mu           sync.Mutex
	be           *backend
	bconn        *service.Conn
	epoch        int
	closed       bool
	journal      [][]byte
	journalBytes int
	replayable   bool
	statsPending int
	delivered    [numPlanes]uint64
	sums         [numPlanes]uint64
}

// session is the per-connection entry point: route the Hello, splice
// until either side ends.
func (g *Gateway) session(nc net.Conn) {
	cconn := service.NewConn(nc, g.opts.IdleTimeout, g.opts.WriteTimeout)
	helloPayload, err := cconn.Read()
	if err != nil {
		return
	}
	h, err := service.ParseHello(helloPayload)
	if err == nil {
		h, err = service.ValidateHello(h)
	}
	if err != nil {
		cconn.Write(service.AppendError(nil, err.Error()))
		return
	}
	key := service.SessionKey(h)

	s := &session{
		g:   g,
		key: key,
		// the Hello outlives the read arena: failover replays it
		hello:      append([]byte(nil), helloPayload...),
		cconn:      cconn,
		replayable: true,
	}
	for p := range s.sums {
		s.sums[p] = fnvOffset64
	}

	// walk the rendezvous ranking for a backend that accepts the session
	var ackPayload []byte
	for _, be := range g.rank(key) {
		if !g.eligible(be) {
			continue
		}
		bconn, ack, geom, derr := g.dialBackend(be, s.hello)
		if derr != nil {
			if _, isReject := derr.(*helloRejected); isReject {
				// the backend is alive and rejected the Hello: that verdict
				// is the client's, not grounds for trying elsewhere
				cconn.Write(ack)
				return
			}
			g.markDown(be, derr)
			continue
		}
		s.be, s.bconn = be, bconn
		s.geom, s.mechBytes = geom, (geom.NumMechs+7)/8
		ackPayload = ack
		break
	}
	if s.be == nil {
		cconn.Write(service.AppendError(nil, "fleet: no eligible backend for session key "+key))
		g.sessionsLost.Add(1)
		return
	}

	g.sessionsTotal.Add(1)
	g.sessionsActive.Add(1)
	defer g.sessionsActive.Add(-1)
	s.be.sessions.Add(1)
	s.be.sessionsTotal.Add(1)

	if err := cconn.Write(ackPayload); err != nil {
		s.shutdown()
		return
	}
	go s.pump(0, s.bconn, replayTarget{})
	s.upstream()
}

// helloRejected marks a backend that answered the Hello with an Error
// frame: the session must see that error, not a different backend.
type helloRejected struct{ msg string }

func (e *helloRejected) Error() string { return e.msg }

// dialBackend opens a backend session by forwarding the client's Hello
// frame verbatim and reading the acceptance. The dial and each
// ProbeTimeout of waiting for the ack are bounded: a backend whose ack is
// late is probed, and the wait goes on only while the probe answers, so a
// backend that accepts but never answers cannot hold the session (or, in
// failover, s.mu), while a live one building a cold pool is not taken for
// dead. Returns the raw ack payload, valid until the Conn's first Read,
// so the gateway can forward it (new sessions) or discard it (failover).
func (g *Gateway) dialBackend(be *backend, hello []byte) (*service.Conn, []byte, service.AckGeometry, error) {
	conn, ack, err := service.DialConn(be.getAddr(), hello, g.opts.ProbeTimeout,
		func() bool { return g.probe(be) })
	if err != nil {
		return nil, nil, service.AckGeometry{}, err
	}
	if service.FrameType(ack) == service.MsgError {
		conn.Close()
		return nil, ack, service.AckGeometry{}, &helloRejected{msg: service.ParseErrorBody(ack)}
	}
	geom, err := service.ParseHelloAckPayload(ack)
	if err != nil {
		conn.Close()
		return nil, nil, service.AckGeometry{}, err
	}
	return conn, ack, geom, nil
}

// upstream is the client→backend pump (the session goroutine itself):
// journal, forward, and on a backend write failure let failover repair
// it — the frame is journaled before the write, so replay re-drives it.
func (s *session) upstream() {
	for {
		payload, err := s.cconn.Read()
		if err != nil {
			s.shutdown() // client went away (or idled out); nothing to preserve
			return
		}
		t := service.FrameType(payload)

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		epoch := s.epoch
		if t == service.MsgStats {
			// not journaled: intercepted below, and re-driven on failover
			// via statsPending rather than the journal
			s.statsPending++
		} else {
			// the arena buffer is overwritten by the next read; the journal
			// keeps frames for the session's lifetime, so it owns a copy
			s.journal = append(s.journal, append([]byte(nil), payload...))
			s.journalBytes += len(payload)
			if s.journalBytes > s.g.opts.MaxJournalBytes && s.replayable {
				s.replayable = false
				s.journal = nil // free it; the session can no longer move
				s.g.opts.Logf("session %s: journal exceeded %d bytes, now non-replayable",
					s.key, s.g.opts.MaxJournalBytes)
			}
			s.be.requests.Add(1)
		}
		werr := s.bconn.Write(payload)
		s.mu.Unlock()

		if werr != nil {
			if !s.failover(epoch, werr) {
				return
			}
		}
	}
}

// pump is the backend→client pump for one backend epoch. target carries
// the replay obligation: swallow and hash-check the first target.count[p]
// frames of each plane before resuming live delivery.
func (s *session) pump(epoch int, bconn *service.Conn, target replayTarget) {
	var replayed [numPlanes]uint64
	var rsum [numPlanes]uint64
	for p := range rsum {
		rsum[p] = fnvOffset64
	}
	// The canonical-form arena. The backend Conn, dialed, carries no idle
	// deadline: a quiet session is normal (the client paces the traffic),
	// and an idle timeout here would read as backend death and trip a
	// spurious failover.
	var canonBuf []byte
	for {
		payload, err := bconn.Read()
		if err != nil {
			s.mu.Lock()
			stale := s.closed || s.epoch != epoch
			s.mu.Unlock()
			if !stale {
				s.failover(epoch, err)
			}
			return
		}
		switch t := service.FrameType(payload); t {
		case service.MsgStatsReply:
			s.deliverStats(payload)
		case service.MsgError:
			// server-side session error: terminal on both hops
			s.killSession(payload)
			return
		default:
			p := planeOf(t)
			if p < 0 {
				s.killSession(service.AppendError(nil,
					fmt.Sprintf("fleet: backend sent unexpected message type %d", t)))
				return
			}
			canonBuf = service.AppendCanonicalFrame(canonBuf[:0], payload, s.mechBytes)
			canon := canonBuf
			if replayed[p] < target.count[p] {
				rsum[p] = hashFrame(rsum[p], canon)
				replayed[p]++
				if replayed[p] == target.count[p] && rsum[p] != target.sum[p] {
					s.g.opts.Logf("session %s: replay diverged on plane %d after %d frames", s.key, p, replayed[p])
					s.killSession(service.AppendError(nil,
						"fleet: replay diverged from original delivery (determinism violation)"))
					return
				}
				continue // the client already has this frame
			}
			s.mu.Lock()
			if s.closed || s.epoch != epoch {
				s.mu.Unlock()
				return
			}
			s.sums[p] = hashFrame(s.sums[p], canon)
			s.delivered[p]++
			s.mu.Unlock()
			if s.cconn.Write(payload) != nil {
				s.shutdown()
				return
			}
		}
	}
}

// deliverStats answers an intercepted msgStats: the backend's inline
// reply (freshest possible for the session's own backend) merged with
// every other backend's cached snapshot, plus the gateway's fleet
// section.
func (s *session) deliverStats(payload []byte) {
	s.mu.Lock()
	if s.statsPending > 0 {
		s.statsPending--
	}
	name := s.be.name
	s.mu.Unlock()
	inline, err := service.ParseStatsReply(payload)
	var out []byte
	if err != nil {
		out = service.AppendError(nil, fmt.Sprintf("fleet: bad backend stats reply: %v", err))
	} else {
		out = service.AppendStatsReply(nil, s.g.snapshotWith(name, inline))
	}
	if s.cconn.Write(out) != nil {
		s.shutdown()
	}
}

// failover moves the session off a dead backend: mark it down, pick the
// next eligible backend in rendezvous order, re-drive the Hello and the
// whole journal, then start a new pump that hash-checks the replayed
// replies. Returns false when the session is gone (not replayable, no
// backend, or already closed).
func (s *session) failover(fromEpoch int, cause error) bool {
	s.mu.Lock()
	if s.closed || s.epoch != fromEpoch {
		ok := !s.closed
		s.mu.Unlock()
		return ok // someone else already handled this epoch
	}
	dead := s.be
	s.mu.Unlock()
	s.g.markDown(dead, cause)
	dead.failovers.Add(1)
	s.g.failoversTotal.Add(1)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.epoch != fromEpoch {
		return !s.closed
	}
	s.bconn.Close()
	if !s.replayable {
		s.killSessionLocked(service.AppendError(nil,
			"fleet: backend died and session exceeded the replay journal cap"))
		return false
	}
	target := replayTarget{count: s.delivered, sum: s.sums}

	for _, be := range s.g.rank(s.key) {
		if be == dead || !s.g.eligible(be) {
			continue
		}
		bconn, _, geom, derr := s.g.dialBackend(be, s.hello)
		if derr != nil {
			if _, isReject := derr.(*helloRejected); !isReject {
				s.g.markDown(be, derr)
			}
			continue
		}
		if geom != s.geom {
			// config skew: this backend would speak a different frame layout
			bconn.Close()
			s.g.opts.Logf("backend %s: geometry %+v does not match session's %+v", be.name, geom, s.geom)
			continue
		}
		var werr error
		for _, frame := range s.journal {
			if werr = bconn.Buffer(frame); werr != nil {
				break
			}
		}
		for i := 0; werr == nil && i < s.statsPending; i++ {
			werr = bconn.Buffer([]byte{service.MsgStats})
		}
		if werr == nil {
			werr = bconn.Flush()
		}
		if werr != nil {
			bconn.Close()
			s.g.markDown(be, werr)
			continue
		}
		dead.sessions.Add(-1)
		be.sessions.Add(1)
		be.sessionsTotal.Add(1)
		be.requests.Add(uint64(len(s.journal)))
		be.replayed.Add(uint64(len(s.journal)))
		s.be, s.bconn = be, bconn
		s.epoch++
		s.g.replaysOK.Add(1)
		s.g.opts.Logf("session %s: failed over %s -> %s, replayed %d frames", s.key, dead.name, be.name, len(s.journal))
		go s.pump(s.epoch, bconn, target)
		return true
	}
	s.killSessionLocked(service.AppendError(nil,
		"fleet: backend died and no eligible backend can take the session"))
	return false
}

// killSession ends the session with an error frame to the client.
func (s *session) killSession(errFrame []byte) {
	s.mu.Lock()
	s.killSessionLocked(errFrame)
	s.mu.Unlock()
}

func (s *session) killSessionLocked(errFrame []byte) {
	if s.closed {
		return
	}
	s.markClosedLocked()
	s.g.sessionsLost.Add(1)
	s.cconn.Write(errFrame)
	s.cconn.Close()
}

// shutdown ends the session cleanly (client hung up or became
// unreachable).
func (s *session) shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.markClosedLocked()
	s.cconn.Close()
}

// markClosedLocked flips the session to closed and releases its backend
// slot. Caller holds s.mu.
func (s *session) markClosedLocked() {
	s.closed = true
	if s.bconn != nil {
		s.bconn.Close()
	}
	if s.be != nil {
		s.be.sessions.Add(-1)
	}
}
