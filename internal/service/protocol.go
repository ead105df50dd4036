// Package service is the real-time decode plane: a streaming syndrome
// server and client speaking a length-prefixed binary protocol over TCP.
//
// A session opens with a Hello naming a catalog code, a round count, a
// physical error rate and a decoder Spec; the server answers with the
// session's vector geometry and from then on the client streams framed
// syndrome batches and receives framed per-syndrome responses
// (error estimate, flip count, iteration count, service latency).
// Sessions draw decoders from per-(code, rounds, p, spec) warm pools with
// a bounded admission queue, adaptive batch coalescing and deadline-based
// load shedding; see DESIGN.md §5 for the wire format, the pool/queue
// semantics and the per-session determinism contract.
package service

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Wire constants (DESIGN.md §5). Every frame is a little-endian uint32
// payload length followed by the payload; payload[0] is the message type.
// The version covers the stats reply's JSON shape and the DEM column set
// that mechanism-indexed payloads (error estimates, stream commits) index.
const (
	protocolMagic   = 0x42505346 // "BPSF"
	protocolVersion = 3

	MsgHello      = 1
	MsgHelloAck   = 2
	MsgBatch      = 3
	MsgBatchReply = 4
	MsgError      = 5
	// Sliding-window streaming frames (DESIGN.md §7): a session may open
	// round-by-round decode streams that coexist with its syndrome batches.
	MsgStreamOpen   = 6
	MsgStreamAck    = 7
	MsgStreamRounds = 8
	MsgStreamCommit = 9
	// MsgSample asks the server to draw the syndromes server-side via the
	// session's word-parallel batch frame sampler (internal/frame) and
	// decode them: a Batch whose payload is a shot count instead of packed
	// syndromes. The reply is an ordinary BatchReply whose responses
	// additionally carry the Failed flag (the server knows the sampled
	// observable flips, so it can report logical failures).
	MsgSample = 10
	// MsgStats pulls a server telemetry snapshot in-protocol (DESIGN.md
	// §10): pools, streams, stage histograms, runtime. The reply is one
	// msgStatsReply frame carrying the ServerSnapshot as JSON, answered
	// inline by the session read loop (so it observes every batch the
	// session flushed before asking).
	MsgStats      = 11
	MsgStatsReply = 12

	// Response flags.
	flagSuccess = 1 << 0
	flagShed    = 1 << 1
	flagFailed  = 1 << 2 // server-sampled requests only: logical failure

	// StreamCommit flags.
	flagStreamWindowOK = 1 << 0 // the window's inner decode succeeded
	flagStreamFinal    = 1 << 1 // last commit of the stream
	flagStreamOK       = 1 << 2 // whole-stream verdict (valid with Final)

	// DefaultMaxFrame bounds a single frame (16 MiB ≈ 4k syndromes of the
	// largest catalog DEM) so a corrupt length prefix cannot OOM the peer.
	// Servers, clients and both hops of the fleet gateway apply it, so every
	// end agrees on the largest batch a session may send.
	DefaultMaxFrame = 16 << 20
)

// Hello opens a session: it selects the decode pool and fixes the
// session's determinism and shedding parameters.
type Hello struct {
	// Code is the catalog code name ("bb144", ...).
	Code string
	// Rounds is the syndrome-extraction round count (0 = code default).
	Rounds int
	// P is the physical error rate the decoder priors are derived from.
	P float64
	// StreamSeed fixes the session's decoder randomness: request i is
	// decoded under RequestSeed(StreamSeed, i), so replaying a syndrome
	// stream with the same seed reproduces every response byte.
	StreamSeed int64
	// Deadline is the maximum queue wait before a request is shed
	// (0 = never shed; the session gets backpressure instead).
	Deadline time.Duration
	// Spec selects the decoder family and parameters.
	Spec Spec
}

// helloAck is the server's session acceptance.
type helloAck struct {
	sessionID uint64
	numDets   uint32 // syndrome bit length
	numMechs  uint32 // error-estimate bit length
	poolSize  uint16
}

// Response is one syndrome's decode report.
type Response struct {
	// Success is true when the decoder satisfied the syndrome.
	Success bool
	// Shed is true when the request was dropped by admission control
	// (queue overflow or queue-deadline expiry); no decode ran.
	Shed bool
	// Iterations is the serial-accounting BP iteration count.
	Iterations int
	// FlipCount is the Hamming weight of the error estimate.
	FlipCount int
	// Latency is the server-side service time (queue wait + decode).
	Latency time.Duration
	// Failed reports a logical failure on server-sampled requests
	// (SubmitSample): the decode failed or predicted the wrong observable
	// flips for the sampled shot. Always false for client-supplied
	// syndromes — the server does not know their ground truth.
	Failed bool
	// ErrHat is the packed error estimate (gf2.Vec.AppendBytes layout,
	// numMechs bits); zero bytes when Shed.
	ErrHat []byte
}

// ---- payload encoding ----

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return appendU64(b, uint64(v)) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

// reader walks a payload with sticky error handling; every accessor
// returns a zero value once the payload is exhausted.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) need(n int) []byte {
	if r.err != nil || r.off+n > len(r.b) {
		if r.err == nil {
			r.err = fmt.Errorf("service: truncated payload (want %d bytes at offset %d of %d)", n, r.off, len(r.b))
		}
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() uint8 {
	if b := r.need(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u16() uint16 {
	if b := r.need(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.need(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.need(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) bytes(n int) []byte {
	return r.need(n)
}

func (r *reader) rest() int { return len(r.b) - r.off }

// ---- hello ----

func appendHello(b []byte, h Hello) ([]byte, error) {
	kind, err := wireKind(h.Spec)
	if err != nil {
		return nil, err
	}
	if len(h.Code) > 255 {
		return nil, fmt.Errorf("service: code name too long")
	}
	b = append(b, MsgHello)
	b = appendU32(b, protocolMagic)
	b = append(b, protocolVersion)
	b = append(b, byte(len(h.Code)))
	b = append(b, h.Code...)
	b = appendU16(b, uint16(h.Rounds))
	b = appendF64(b, h.P)
	b = appendI64(b, h.StreamSeed)
	b = appendI64(b, int64(h.Deadline))
	b = append(b, kind)
	b = appendU32(b, uint32(h.Spec.BPIters))
	b = appendU16(b, uint16(h.Spec.OSDOrder))
	b = appendU16(b, uint16(h.Spec.Phi))
	b = appendU16(b, uint16(h.Spec.WMax))
	b = appendU16(b, uint16(h.Spec.NS))
	layered := byte(0)
	if h.Spec.Layered {
		layered = 1
	}
	b = append(b, layered)
	return b, nil
}

// ParseHello decodes a Hello frame payload (the fleet gateway's routing
// input).
func ParseHello(payload []byte) (Hello, error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgHello {
		return Hello{}, fmt.Errorf("service: expected Hello, got message type %d", t)
	}
	if magic := r.u32(); r.err == nil && magic != protocolMagic {
		return Hello{}, fmt.Errorf("service: bad magic %#x", magic)
	}
	if v := r.u8(); r.err == nil && v != protocolVersion {
		return Hello{}, fmt.Errorf("service: protocol version %d, want %d", v, protocolVersion)
	}
	nameLen := int(r.u8())
	name := r.bytes(nameLen)
	var h Hello
	h.Code = string(name)
	h.Rounds = int(r.u16())
	h.P = r.f64()
	h.StreamSeed = r.i64()
	h.Deadline = time.Duration(r.i64())
	kind := r.u8()
	h.Spec.BPIters = int(r.u32())
	h.Spec.OSDOrder = int(r.u16())
	h.Spec.Phi = int(r.u16())
	h.Spec.WMax = int(r.u16())
	h.Spec.NS = int(r.u16())
	h.Spec.Layered = r.u8() == 1
	if r.err != nil {
		return Hello{}, r.err
	}
	var err error
	if h.Spec.Kind, err = kindFromByte(kind); err != nil {
		return Hello{}, err
	}
	return h, nil
}

// ---- hello ack ----

func appendHelloAck(b []byte, a helloAck) []byte {
	b = append(b, MsgHelloAck)
	b = appendU64(b, a.sessionID)
	b = appendU32(b, a.numDets)
	b = appendU32(b, a.numMechs)
	b = appendU16(b, a.poolSize)
	return b
}

func parseHelloAck(payload []byte) (helloAck, error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgHelloAck {
		if t == MsgError {
			return helloAck{}, fmt.Errorf("service: server rejected session: %s", ParseErrorBody(payload))
		}
		return helloAck{}, fmt.Errorf("service: expected HelloAck, got message type %d", t)
	}
	a := helloAck{
		sessionID: r.u64(),
		numDets:   r.u32(),
		numMechs:  r.u32(),
		poolSize:  r.u16(),
	}
	return a, r.err
}

// ---- error ----

// AppendError encodes an Error frame payload.
func AppendError(b []byte, msg string) []byte {
	b = append(b, MsgError)
	if len(msg) > 65535 {
		msg = msg[:65535]
	}
	b = appendU16(b, uint16(len(msg)))
	return append(b, msg...)
}

// ParseErrorBody extracts the message of an msgError payload (best effort).
func ParseErrorBody(payload []byte) string {
	r := &reader{b: payload}
	if r.u8() != MsgError {
		return "malformed error frame"
	}
	n := int(r.u16())
	body := r.bytes(n)
	if r.err != nil {
		return "malformed error frame"
	}
	return string(body)
}

// ---- batches ----

// batchHeaderLen is type + batchID + count.
const batchHeaderLen = 1 + 8 + 2

// appendBatchHeader starts a Batch frame; the caller appends count packed
// syndromes of detBytes each.
func appendBatchHeader(b []byte, batchID uint64, count int) []byte {
	b = append(b, MsgBatch)
	b = appendU64(b, batchID)
	b = appendU16(b, uint16(count))
	return b
}

// parseBatchInto splits a Batch payload into its syndrome byte slices
// (views into payload). scratch's capacity is reused, so a warm session
// parses batches without allocating.
// The returned views alias payload, which the session's read loop owns
// only until its next frame read.
func parseBatchInto(payload []byte, detBytes int, scratch [][]byte) (batchID uint64, syndromes [][]byte, err error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgBatch {
		return 0, nil, fmt.Errorf("service: expected Batch, got message type %d", t)
	}
	batchID = r.u64()
	count := int(r.u16())
	if r.err != nil {
		return 0, nil, r.err
	}
	if got := r.rest(); got != count*detBytes {
		return 0, nil, fmt.Errorf("service: batch of %d syndromes carries %d bytes, want %d", count, got, count*detBytes)
	}
	if cap(scratch) < count {
		scratch = make([][]byte, count)
	}
	syndromes = scratch[:count]
	for i := range syndromes {
		syndromes[i] = r.bytes(detBytes)
	}
	return batchID, syndromes, r.err
}

// appendSample encodes a server-side sample request: the server draws
// count shots from the session's deterministic batch sampler and decodes
// them.
func appendSample(b []byte, batchID uint64, count int) []byte {
	b = append(b, MsgSample)
	b = appendU64(b, batchID)
	b = appendU16(b, uint16(count))
	return b
}

func parseSample(payload []byte) (batchID uint64, count int, err error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgSample {
		return 0, 0, fmt.Errorf("service: expected Sample, got message type %d", t)
	}
	batchID = r.u64()
	count = int(r.u16())
	if r.err != nil {
		return 0, 0, r.err
	}
	if count < 1 {
		return 0, 0, fmt.Errorf("service: sample request for %d shots", count)
	}
	if r.rest() != 0 {
		return 0, 0, fmt.Errorf("service: sample frame carries %d trailing bytes", r.rest())
	}
	return batchID, count, nil
}

// ---- streams ----

// appendStreamOpen starts a windowed stream: window/commit round counts
// (0, 0 selects the server defaults).
func appendStreamOpen(b []byte, window, commit int) []byte {
	b = append(b, MsgStreamOpen)
	b = appendU16(b, uint16(window))
	b = appendU16(b, uint16(commit))
	return b
}

func parseStreamOpen(payload []byte) (window, commit int, err error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgStreamOpen {
		return 0, 0, fmt.Errorf("service: expected StreamOpen, got message type %d", t)
	}
	window = int(r.u16())
	commit = int(r.u16())
	return window, commit, r.err
}

// streamAck is the server's stream acceptance: the session-scoped stream
// id, the resolved window/commit parameters and the per-round detector
// counts of the layout (so the client can split syndromes into round
// payloads without rebuilding the circuit).
type streamAck struct {
	id             uint64
	window, commit int
	detsPerRound   []int
}

func appendStreamAck(b []byte, a streamAck) []byte {
	b = append(b, MsgStreamAck)
	b = appendU64(b, a.id)
	b = appendU16(b, uint16(a.window))
	b = appendU16(b, uint16(a.commit))
	b = appendU16(b, uint16(len(a.detsPerRound)))
	for _, n := range a.detsPerRound {
		b = appendU32(b, uint32(n))
	}
	return b
}

func parseStreamAck(payload []byte) (streamAck, error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgStreamAck {
		return streamAck{}, fmt.Errorf("service: expected StreamAck, got message type %d", t)
	}
	a := streamAck{id: r.u64(), window: int(r.u16()), commit: int(r.u16())}
	rounds := int(r.u16())
	for i := 0; i < rounds; i++ {
		a.detsPerRound = append(a.detsPerRound, int(r.u32()))
	}
	if r.err == nil && r.rest() != 0 {
		return streamAck{}, fmt.Errorf("service: stream ack frame carries %d trailing bytes", r.rest())
	}
	return a, r.err
}

// appendStreamRoundsHeader starts a StreamRounds frame; the caller appends
// count packed rounds, each byte-aligned at its own round's detector
// count.
func appendStreamRoundsHeader(b []byte, id uint64, firstRound, count int) []byte {
	b = append(b, MsgStreamRounds)
	b = appendU64(b, id)
	b = appendU16(b, uint16(firstRound))
	b = appendU16(b, uint16(count))
	return b
}

// parseStreamRounds splits a StreamRounds payload into per-round byte
// slices (views into payload), validated against the stream layout's
// per-round detector counts. The views go into scratch's backing array
// when it is large enough, so a caller that passes the previous result
// back parses without allocating.
func parseStreamRounds(payload []byte, detsPerRound []int, scratch [][]byte) (id uint64, firstRound int, rounds [][]byte, err error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgStreamRounds {
		return 0, 0, nil, fmt.Errorf("service: expected StreamRounds, got message type %d", t)
	}
	id = r.u64()
	firstRound = int(r.u16())
	count := int(r.u16())
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	if count < 1 || firstRound+count > len(detsPerRound) {
		return 0, 0, nil, fmt.Errorf("service: stream rounds [%d,%d) outside the %d-round layout",
			firstRound, firstRound+count, len(detsPerRound))
	}
	rounds = scratch[:0]
	for i := 0; i < count; i++ {
		rounds = append(rounds, r.bytes((detsPerRound[firstRound+i]+7)/8))
	}
	if r.err == nil && r.rest() != 0 {
		return 0, 0, nil, fmt.Errorf("service: stream rounds frame carries %d trailing bytes", r.rest())
	}
	return id, firstRound, rounds, r.err
}

// streamCommitMsg is one window's committed correction on the wire.
type streamCommitMsg struct {
	id                   uint64
	window               int
	flags                byte
	firstRound, endRound int
	latency              time.Duration
	mechs                []byte // packed committed-mechanism bitmap (parsed: a view into the payload)
}

func appendStreamCommit(b []byte, m streamCommitMsg) []byte {
	b = append(b, MsgStreamCommit)
	b = appendU64(b, m.id)
	b = appendU32(b, uint32(m.window))
	b = append(b, m.flags)
	b = appendU16(b, uint16(m.firstRound))
	b = appendU16(b, uint16(m.endRound))
	b = appendI64(b, int64(m.latency))
	b = append(b, m.mechs...)
	return b
}

func parseStreamCommit(payload []byte, mechBytes int) (streamCommitMsg, error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgStreamCommit {
		return streamCommitMsg{}, fmt.Errorf("service: expected StreamCommit, got message type %d", t)
	}
	m := streamCommitMsg{
		id:         r.u64(),
		window:     int(r.u32()),
		flags:      r.u8(),
		firstRound: int(r.u16()),
		endRound:   int(r.u16()),
		latency:    time.Duration(r.i64()),
	}
	m.mechs = r.bytes(mechBytes)
	if r.err == nil && r.rest() != 0 {
		return streamCommitMsg{}, fmt.Errorf("service: stream commit frame carries %d trailing bytes", r.rest())
	}
	return m, r.err
}

// replyItemFixedLen is the per-response fixed part: flags + iters +
// flipCount + latency.
const replyItemFixedLen = 1 + 4 + 4 + 8

func appendBatchReplyHeader(b []byte, batchID uint64, count int) []byte {
	b = append(b, MsgBatchReply)
	b = appendU64(b, batchID)
	b = appendU16(b, uint16(count))
	return b
}

// appendResponse serializes one Response with a mechBytes-wide estimate.
func appendResponse(b []byte, resp *Response, mechBytes int) []byte {
	var flags byte
	if resp.Success {
		flags |= flagSuccess
	}
	if resp.Shed {
		flags |= flagShed
	}
	if resp.Failed {
		flags |= flagFailed
	}
	b = append(b, flags)
	b = appendU32(b, uint32(resp.Iterations))
	b = appendU32(b, uint32(resp.FlipCount))
	b = appendI64(b, int64(resp.Latency))
	if len(resp.ErrHat) == mechBytes {
		b = append(b, resp.ErrHat...)
	} else {
		// shed responses carry a zero estimate to keep the frame layout fixed
		for i := 0; i < mechBytes; i++ {
			b = append(b, 0)
		}
	}
	return b
}

// peekBatchReplyID reads just the batch id off a BatchReply frame, so
// the receiver can look up the waiter (and its recycled Response slice)
// before parsing the items into it.
func peekBatchReplyID(payload []byte) (uint64, error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgBatchReply {
		return 0, fmt.Errorf("service: expected BatchReply, got message type %d", t)
	}
	id := r.u64()
	if r.err != nil {
		return 0, r.err
	}
	return id, nil
}

// parseBatchReplyInto decodes a BatchReply payload into scratch: both the
// Response slice capacity and each retained Response's ErrHat capacity
// are recycled, so a warm client parses replies without allocating. Each
// ErrHat is still a private copy of the payload bytes (never a view), so
// callers may retain responses past the frame's lifetime.
func parseBatchReplyInto(payload []byte, mechBytes int, scratch []Response) (batchID uint64, resps []Response, err error) {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgBatchReply {
		return 0, nil, fmt.Errorf("service: expected BatchReply, got message type %d", t)
	}
	batchID = r.u64()
	count := int(r.u16())
	if r.err != nil {
		return 0, nil, r.err
	}
	if got := r.rest(); got != count*(replyItemFixedLen+mechBytes) {
		return 0, nil, fmt.Errorf("service: reply of %d responses carries %d bytes, want %d",
			count, got, count*(replyItemFixedLen+mechBytes))
	}
	scratch = scratch[:cap(scratch)]
	if len(scratch) < count {
		scratch = append(scratch, make([]Response, count-len(scratch))...)
	}
	resps = scratch[:count]
	for i := range resps {
		flags := r.u8()
		resps[i].Success = flags&flagSuccess != 0
		resps[i].Shed = flags&flagShed != 0
		resps[i].Failed = flags&flagFailed != 0
		resps[i].Iterations = int(r.u32())
		resps[i].FlipCount = int(r.u32())
		resps[i].Latency = time.Duration(r.i64())
		resps[i].ErrHat = append(resps[i].ErrHat[:0], r.bytes(mechBytes)...)
	}
	return batchID, resps, r.err
}
