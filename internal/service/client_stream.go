package service

import (
	"fmt"
	"time"

	"bpsf/internal/gf2"
	"bpsf/internal/window"
)

// StreamCommit is one window's incremental committed correction as seen by
// the client.
type StreamCommit struct {
	// Window is the window index; the commit covers rounds
	// [FirstRound, EndRound).
	Window               int
	FirstRound, EndRound int
	// WindowSuccess reports the window's inner decode; Final marks the
	// stream's last commit and StreamSuccess (valid with Final) the
	// whole-stream verdict.
	WindowSuccess bool
	Final         bool
	StreamSuccess bool
	// Latency is the server-side time from round-frame arrival to commit
	// emission.
	Latency time.Duration
	// Mechs is the packed committed-mechanism bitmap (numMechs bits).
	Mechs []byte
}

// StreamResult is a completed stream's verdict.
type StreamResult struct {
	// Success is true when every round arrived, every window decoded
	// successfully and the accumulated correction reproduces the syndrome.
	Success bool
	// ErrHat is the accumulated committed correction (numMechs bits).
	ErrHat gf2.Vec
	// Commits are the per-window commits in emission order.
	Commits []StreamCommit
}

// ClientStream is one windowed decode stream within a session. Rounds go
// up with SendRounds (in order); commits come back through NextCommit or
// Finish. A stream is not safe for concurrent use, but separate streams
// and batch Submits on the same session are.
type ClientStream struct {
	c              *Client
	id             uint64
	windowC        int
	commitC        int
	dets           []int
	spans          []window.Span
	nextRound      int
	sentFinalRound bool

	commits chan StreamCommit
	errHat  gf2.Vec
	drained []StreamCommit

	// Reused per commit, so a warm stream takes commits without
	// allocating: the commit bitmap being folded into errHat, and one
	// mechanism bitmap slot per window that StreamCommit.Mechs points
	// into. Round frames are built in the session Conn's write arena.
	mechVec gf2.Vec
	mechs   []byte
}

// pendingOpen is an in-flight StreamOpen awaiting its ack; acks arrive in
// open order on the session.
type pendingOpen struct {
	done chan struct{}
	ack  streamAck
	err  error
}

// OpenStream opens a windowed decode stream on the session. A zero
// window or commit selects the server's configured default for that
// field (the default commit clamps to an explicitly smaller window);
// explicit values are taken as given, and commit > window is rejected.
// Stream j of a session is
// served under the deterministic seed RequestSeed(StreamSeed, j), so
// replaying a session's streams reproduces every commit byte for byte.
func (c *Client) OpenStream(windowRounds, commitRounds int) (*ClientStream, error) {
	if windowRounds < 0 || commitRounds < 0 || windowRounds > 65535 || commitRounds > 65535 {
		return nil, fmt.Errorf("service: stream window/commit out of range")
	}
	po := &pendingOpen{done: make(chan struct{})}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.opens = append(c.opens, po)
	c.mu.Unlock()

	err := c.conn.Send(func(b []byte) []byte { return appendStreamOpen(b, windowRounds, commitRounds) })
	if err != nil {
		c.fail(err)
		return nil, err
	}
	<-po.done
	if po.err != nil {
		return nil, po.err
	}
	spans, err := window.PartitionRounds(len(po.ack.detsPerRound), po.ack.window, po.ack.commit)
	if err != nil {
		return nil, fmt.Errorf("service: server stream ack is inconsistent: %w", err)
	}
	st := &ClientStream{
		c:       c,
		id:      po.ack.id,
		windowC: po.ack.window,
		commitC: po.ack.commit,
		dets:    po.ack.detsPerRound,
		spans:   spans,
		commits: make(chan StreamCommit, len(spans)),
		errHat:  gf2.NewVec(c.numMechs),
		drained: make([]StreamCommit, 0, len(spans)),
		mechVec: gf2.NewVec(c.numMechs),
		mechs:   make([]byte, len(spans)*((c.numMechs+7)/8)),
	}
	c.mu.Lock()
	c.streams[st.id] = st
	c.mu.Unlock()
	return st, nil
}

// Window and CommitRounds return the stream's resolved parameters.
func (s *ClientStream) Window() int { return s.windowC }

// CommitRounds returns the resolved commit-region size C.
func (s *ClientStream) CommitRounds() int { return s.commitC }

// NumRounds returns the stream's layout round count (for memory
// experiments: circuit rounds + 1, the final data measurement forming the
// last layout round).
func (s *ClientStream) NumRounds() int { return len(s.dets) }

// RoundDets returns the detector count of layout round r.
func (s *ClientStream) RoundDets(r int) int { return s.dets[r] }

// Spans returns the stream's window partition — which rounds complete
// which window, for latency attribution.
func (s *ClientStream) Spans() []window.Span { return s.spans }

// SendRounds ships the next len(rounds) rounds, in layout order; round i
// of the call must carry RoundDets(NextRound+i) bits.
func (s *ClientStream) SendRounds(rounds []gf2.Vec) error {
	if len(rounds) == 0 {
		return fmt.Errorf("service: empty round batch")
	}
	if s.nextRound+len(rounds) > len(s.dets) {
		return fmt.Errorf("service: sending rounds [%d,%d) beyond the %d-round stream",
			s.nextRound, s.nextRound+len(rounds), len(s.dets))
	}
	for i, r := range rounds {
		if r.Len() != s.dets[s.nextRound+i] {
			return fmt.Errorf("service: round %d carries %d detectors, stream expects %d",
				s.nextRound+i, r.Len(), s.dets[s.nextRound+i])
		}
	}
	err := s.c.conn.Send(func(b []byte) []byte {
		b = appendStreamRoundsHeader(b, s.id, s.nextRound, len(rounds))
		for _, r := range rounds {
			b = r.AppendBytes(b)
		}
		return b
	})
	if err != nil {
		s.c.fail(err)
		return err
	}
	s.nextRound += len(rounds)
	return nil
}

// NextRound returns the index of the round SendRounds ships next.
func (s *ClientStream) NextRound() int { return s.nextRound }

// NextCommit blocks for the stream's next committed window and folds its
// correction into the accumulated estimate.
func (s *ClientStream) NextCommit() (StreamCommit, error) {
	var cm StreamCommit
	var ok bool
	// prefer buffered commits over a concurrent session failure
	select {
	case cm, ok = <-s.commits:
	default:
		select {
		case cm, ok = <-s.commits:
		case <-s.c.done:
			s.c.mu.Lock()
			err := s.c.err
			s.c.mu.Unlock()
			return StreamCommit{}, err
		}
	}
	if !ok {
		return StreamCommit{}, fmt.Errorf("service: stream %d closed", s.id)
	}
	if err := s.mechVec.SetBytes(cm.Mechs); err != nil {
		return StreamCommit{}, err
	}
	s.errHat.Xor(s.mechVec)
	s.drained = append(s.drained, cm)
	return cm, nil
}

// keepMechs copies window w's commit bitmap out of the receive buffer
// into the stream's slot for that window. It runs on the session's
// receive goroutine.
func (s *ClientStream) keepMechs(w int, mechs []byte) ([]byte, error) {
	n := len(mechs)
	if w < 0 || w >= len(s.spans) {
		return nil, fmt.Errorf("service: commit for window %d of a %d-window stream", w, len(s.spans))
	}
	return append(s.mechs[w*n:w*n:(w+1)*n], mechs...), nil
}

// Finish drains the remaining commits through the final one and returns
// the stream verdict: the accumulated committed correction and the
// whole-stream success bit. Every round must have been sent.
func (s *ClientStream) Finish() (StreamResult, error) {
	if s.nextRound != len(s.dets) {
		return StreamResult{}, fmt.Errorf("service: Finish after %d of %d rounds sent", s.nextRound, len(s.dets))
	}
	for len(s.drained) == 0 || !s.drained[len(s.drained)-1].Final {
		if _, err := s.NextCommit(); err != nil {
			return StreamResult{}, err
		}
	}
	last := s.drained[len(s.drained)-1]
	return StreamResult{Success: last.StreamSuccess, ErrHat: s.errHat, Commits: s.drained}, nil
}
