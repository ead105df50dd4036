package service

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"bpsf/internal/gf2"
)

// ErrBackendClosed marks a session lost because the server side of the
// connection went away mid-session — the backend died, was killed, or
// force-closed the socket. Callers that redial (the gateway's failover
// path, bpsf-load against a fleet) match it with errors.Is to separate
// backend death from their own Close and from protocol errors, which are
// never worth a replay.
var ErrBackendClosed = errors.New("service: backend closed connection")

// classifyRecvErr wraps a recvLoop read error: connection-loss shapes
// (EOF at or inside a frame, reset, broken pipe) become ErrBackendClosed;
// net.ErrClosed stays plain because it means this side hung up. Deadline
// expiry is checked first: a timeout is a verdict about THIS hop's
// socket (an idle or stalled peer), not evidence the backend process
// died — before PR10 a timeout inside a frame wrapped into
// io.ErrUnexpectedEOF territory and could masquerade as backend death,
// tripping fleet failover on a link that merely stalled.
func classifyRecvErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("service: session timed out: %w", err)
	}
	if !errors.Is(err, net.ErrClosed) &&
		(errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
			errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)) {
		return fmt.Errorf("%w: %v", ErrBackendClosed, err)
	}
	return fmt.Errorf("service: session lost: %w", err)
}

// Client is one decode session. Submit pipelines batches (any number may
// be in flight, bounded by the server's per-session pipeline depth);
// Decode is the synchronous convenience wrapper. Submit and Decode are
// safe for concurrent use; responses always come back in submission order
// per Pending.
type Client struct {
	conn *Conn // recvLoop reads; any goroutine sends

	// geometry from the server's session acceptance
	numDets  int
	numMechs int
	poolSize int

	maxBatch int

	freeP chan *Pending // recycled Pendings (Release)

	mu      sync.Mutex // guards pending/opens/statsQ/streams/nextID/err
	pending map[uint64]*Pending
	opens   []*pendingOpen  // StreamOpens awaiting ack, in send order
	statsQ  []*pendingStats // Stats requests awaiting reply, in send order
	streams map[uint64]*ClientStream
	nextID  uint64
	err     error
	// done closes when the session fails; stream readers select on it so a
	// dead session never strands them (commit channels are closed only by
	// recvLoop, which owns delivery).
	done chan struct{}
}

// Pending is an in-flight batch; Wait blocks for its responses.
//
// Completion is a token in a 1-slot channel rather than a close, so a
// Pending can be recycled: Wait takes the token and puts it straight
// back, which keeps Wait re-entrant, and Client.Release drains it when
// returning the Pending (and its Response/ErrHat capacity) to the
// session's free list.
type Pending struct {
	done  chan struct{}
	resps []Response
	err   error
}

// Wait blocks until the batch's replies arrive (or the session fails) and
// returns one Response per submitted syndrome, in submission order.
func (p *Pending) Wait() ([]Response, error) {
	<-p.done
	p.done <- struct{}{}
	return p.resps, p.err
}

// complete releases every waiter. Called exactly once per flight: both
// completion paths (recvLoop delivery, session failure) unregister the
// Pending under c.mu before completing it.
func (p *Pending) complete() {
	p.done <- struct{}{}
}

// Release returns an awaited Pending to the session's free list so its
// Response slice (and each retained ErrHat's capacity) back the next
// Submit — with Release in the loop, a warm client round-trip allocates
// nothing. Optional: an unreleased Pending is simply collected. The
// caller must be done with the responses — their ErrHat bytes are
// overwritten by a later reply.
func (c *Client) Release(p *Pending) {
	if p == nil {
		return
	}
	select {
	case <-p.done: // drain the completion token; the slot starts idle
	default:
	}
	p.err = nil
	select {
	case c.freeP <- p:
	default: // free list full; let the GC have it
	}
}

// getPending reuses a released Pending or mints a fresh one.
func (c *Client) getPending() *Pending {
	select {
	case p := <-c.freeP:
		return p
	default:
		return &Pending{done: make(chan struct{}, 1)}
	}
}

// Dial opens a decode session (TCP, or UDS for "unix:"/path-shaped
// addresses — see dialAddr). The Hello is validated locally first, so
// configuration mistakes fail without a network round trip.
func Dial(addr string, h Hello) (*Client, error) {
	return DialTimeout(addr, h, 0)
}

// DialTimeout is Dial with the connect and the Hello/HelloAck handshake
// bounded by timeout (0 = unbounded), so a backend that accepts but never
// acknowledges cannot hold the caller.
func DialTimeout(addr string, h Hello, timeout time.Duration) (*Client, error) {
	if _, err := ValidateHello(h); err != nil {
		return nil, err
	}
	hello, err := appendHello(nil, h)
	if err != nil {
		return nil, err
	}
	conn, ackPayload, err := DialConn(addr, hello, timeout, nil)
	if err != nil {
		return nil, err
	}
	ack, err := parseHelloAck(ackPayload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		conn:     conn,
		numDets:  int(ack.numDets),
		numMechs: int(ack.numMechs),
		poolSize: int(ack.poolSize),
		maxBatch: batchLimit(DefaultMaxFrame, int(ack.numDets), int(ack.numMechs)),
		freeP:    make(chan *Pending, 64),
		pending:  make(map[uint64]*Pending),
		streams:  make(map[uint64]*ClientStream),
		done:     make(chan struct{}),
	}
	go c.recvLoop()
	return c, nil
}

// batchLimit is the largest batch whose request AND reply both fit the
// frame guard — replies carry (fixed + mechBytes) per syndrome, which for
// every catalog DEM is the wider side.
func batchLimit(maxFrame, numDets, numMechs int) int {
	detBytes := (numDets + 7) / 8
	mechBytes := (numMechs + 7) / 8
	limit := 65535
	if n := (maxFrame - batchHeaderLen) / (replyItemFixedLen + mechBytes); n < limit {
		limit = n
	}
	if detBytes > 0 {
		if n := (maxFrame - batchHeaderLen) / detBytes; n < limit {
			limit = n
		}
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// NumDets returns the syndrome bit length of the session's DEM.
func (c *Client) NumDets() int { return c.numDets }

// NumMechs returns the error-estimate bit length.
func (c *Client) NumMechs() int { return c.numMechs }

// PoolSize returns the server-side warm pool size.
func (c *Client) PoolSize() int { return c.poolSize }

// MaxBatch returns the largest batch Submit accepts for this session
// (bounded so request and reply frames stay within the frame guard).
func (c *Client) MaxBatch() int { return c.maxBatch }

// Submit sends one batch of syndromes and returns immediately; the
// syndromes are serialized before Submit returns, so callers may reuse the
// vectors. Each syndrome must be NumDets bits long.
func (c *Client) Submit(syndromes []gf2.Vec) (*Pending, error) {
	if len(syndromes) == 0 || len(syndromes) > c.maxBatch {
		return nil, fmt.Errorf("service: batch of %d syndromes (want 1..%d)", len(syndromes), c.maxBatch)
	}
	for i, v := range syndromes {
		if v.Len() != c.numDets {
			return nil, fmt.Errorf("service: syndrome %d has %d bits, session expects %d", i, v.Len(), c.numDets)
		}
	}
	p, id, err := c.enroll()
	if err != nil {
		return nil, err
	}
	err = c.conn.Send(func(b []byte) []byte {
		b = appendBatchHeader(b, id, len(syndromes))
		for _, v := range syndromes {
			b = v.AppendBytes(b)
		}
		return b
	})
	if err != nil {
		c.fail(err)
		return nil, err
	}
	return p, nil
}

// enroll registers a (possibly recycled) Pending under the next batch id
// — the request-side half shared by Submit and SubmitSample. The frame is
// sent after it; registration happens first so a reply can never race
// its waiter.
func (c *Client) enroll() (*Pending, uint64, error) {
	p := c.getPending()
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.Release(p)
		return nil, 0, err
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = p
	c.mu.Unlock()
	return p, id, nil
}

// SubmitSample asks the server to draw count syndromes server-side — via
// the session's deterministic word-parallel batch frame sampler at the
// session's (code, rounds, p) — decode them, and reply like an ordinary
// batch. Responses carry Failed (logical verdict against the sampled
// ground truth) in addition to the usual fields. The sampled shot stream
// is a pure function of Hello.StreamSeed; decode seeds come from the
// session-wide request index shared with Submit, so a session issuing
// the same request sequence replays byte-identically (DESIGN.md §8).
func (c *Client) SubmitSample(count int) (*Pending, error) {
	if count < 1 || count > c.maxBatch {
		return nil, fmt.Errorf("service: sample request of %d shots (want 1..%d)", count, c.maxBatch)
	}
	p, id, err := c.enroll()
	if err != nil {
		return nil, err
	}
	err = c.conn.Send(func(b []byte) []byte { return appendSample(b, id, count) })
	if err != nil {
		c.fail(err)
		return nil, err
	}
	return p, nil
}

// pendingStats is one in-flight Stats request. Stats requests carry no
// correlation id on the wire; the server answers them inline in frame
// order, so a FIFO (like stream opens) pairs replies with waiters.
type pendingStats struct {
	done chan struct{}
	snap ServerSnapshot
	err  error
}

// Stats pulls a server telemetry snapshot in-protocol: pools, streams,
// stage histograms, slowest traces and runtime health (DESIGN.md §10).
// Because the request rides the session's frame stream, the reply
// reflects every batch the session had flushed before calling — which is
// what lets a load generator reconcile its own request count against the
// server's stage histograms exactly.
func (c *Client) Stats() (ServerSnapshot, error) {
	ps := &pendingStats{done: make(chan struct{})}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return ServerSnapshot{}, err
	}
	c.statsQ = append(c.statsQ, ps)
	c.mu.Unlock()

	if err := c.conn.Send(appendStatsRequest); err != nil {
		c.fail(err)
		return ServerSnapshot{}, err
	}
	<-ps.done
	return ps.snap, ps.err
}

// Decode is the synchronous round trip: Submit + Wait.
func (c *Client) Decode(syndromes []gf2.Vec) ([]Response, error) {
	p, err := c.Submit(syndromes)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// Close ends the session; outstanding Pendings fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(fmt.Errorf("service: session closed"))
	return err
}

func (c *Client) recvLoop() {
	for {
		payload, err := c.conn.Read()
		if err != nil {
			c.fail(classifyRecvErr(err))
			return
		}
		switch payload[0] {
		case MsgBatchReply:
			id, err := peekBatchReplyID(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			p := c.pending[id]
			delete(c.pending, id)
			c.mu.Unlock()
			if p == nil {
				c.fail(fmt.Errorf("service: reply for unknown batch %d", id))
				return
			}
			// Parse straight into the Pending's recycled Response slice:
			// every ErrHat is appended into that slot's retained capacity,
			// so a Release'd Pending makes the whole reply path free.
			_, resps, err := parseBatchReplyInto(payload, (c.numMechs+7)/8, p.resps)
			if err != nil {
				p.err = err
				p.complete()
				c.fail(err)
				return
			}
			p.resps = resps
			p.complete()
		case MsgStreamAck:
			ack, err := parseStreamAck(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			if len(c.opens) == 0 {
				c.mu.Unlock()
				c.fail(fmt.Errorf("service: unsolicited stream ack"))
				return
			}
			po := c.opens[0]
			c.opens = c.opens[1:]
			c.mu.Unlock()
			po.ack = ack
			close(po.done)
		case MsgStreamCommit:
			m, err := parseStreamCommit(payload, (c.numMechs+7)/8)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			st := c.streams[m.id]
			if st != nil && m.flags&flagStreamFinal != 0 {
				delete(c.streams, m.id)
			}
			c.mu.Unlock()
			if st == nil {
				c.fail(fmt.Errorf("service: commit for unknown stream %d", m.id))
				return
			}
			mechs, err := st.keepMechs(m.window, m.mechs)
			if err != nil {
				c.fail(err)
				return
			}
			st.commits <- StreamCommit{
				Window:        m.window,
				FirstRound:    m.firstRound,
				EndRound:      m.endRound,
				WindowSuccess: m.flags&flagStreamWindowOK != 0,
				Final:         m.flags&flagStreamFinal != 0,
				StreamSuccess: m.flags&flagStreamOK != 0,
				Latency:       m.latency,
				Mechs:         mechs,
			}
			if m.flags&flagStreamFinal != 0 {
				close(st.commits)
			}
		case MsgStatsReply:
			snap, err := ParseStatsReply(payload)
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			if len(c.statsQ) == 0 {
				c.mu.Unlock()
				c.fail(fmt.Errorf("service: unsolicited stats reply"))
				return
			}
			ps := c.statsQ[0]
			c.statsQ = c.statsQ[1:]
			c.mu.Unlock()
			ps.snap = snap
			close(ps.done)
		case MsgError:
			c.fail(fmt.Errorf("service: server error: %s", ParseErrorBody(payload)))
			return
		default:
			c.fail(fmt.Errorf("service: unexpected message type %d", payload[0]))
			return
		}
	}
}

// fail records the session's terminal error and releases every waiter.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	for id, p := range c.pending {
		p.err = c.err
		p.complete()
		delete(c.pending, id)
	}
	for _, po := range c.opens {
		po.err = c.err
		close(po.done)
	}
	c.opens = nil
	for _, ps := range c.statsQ {
		ps.err = c.err
		close(ps.done)
	}
	c.statsQ = nil
	for id := range c.streams {
		delete(c.streams, id)
	}
}
