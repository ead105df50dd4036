package service

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire access for the fleet tier (DESIGN.md §12). The gateway in
// internal/fleet proxies this package's protocol frame by frame — it
// routes on the Hello, splices everything else verbatim, and re-drives
// journaled frames onto a fresh backend on failover — so it needs just
// enough of the wire surface to read frames, classify them, and compare
// replayed replies against what it already delivered. Everything here is
// a thin exported veneer over the session codecs; the frame layouts stay
// private to this package.

// Exported frame-type bytes: the gateway's dispatch vocabulary. Values
// are the wire bytes of DESIGN.md §5/§7/§10.
const (
	MsgHello        = msgHello
	MsgHelloAck     = msgHelloAck
	MsgBatch        = msgBatch
	MsgBatchReply   = msgBatchReply
	MsgError        = msgError
	MsgStreamOpen   = msgStreamOpen
	MsgStreamAck    = msgStreamAck
	MsgStreamRounds = msgStreamRounds
	MsgStreamCommit = msgStreamCommit
	MsgSample       = msgSample
	MsgStats        = msgStats
	MsgStatsReply   = msgStatsReply
)

// DefaultMaxFrame is the frame-size guard servers and clients apply;
// the gateway uses the same bound on both hops, so every end agrees on
// the largest batch a session may send.
const DefaultMaxFrame = defaultMaxFrame

// ReadFrame reads one length-prefixed frame payload (the length header is
// stripped; payload[0] is the message type).
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	return readFrame(r, maxFrame)
}

// ReadFrameInto is ReadFrame through a caller-owned arena: the payload is
// read into buf's capacity (growing only when a frame exceeds it) and the
// returned slice aliases it. The contract is the same as the server's own
// read path (DESIGN.md §13): the payload is valid until the next
// ReadFrameInto with the same buffer, and a caller retaining bytes past
// that — the gateway's replay journal, for one — must copy them. Pass the
// returned slice back as buf on the next call.
func ReadFrameInto(r io.Reader, maxFrame int, buf []byte) ([]byte, error) {
	return readFrameInto(r, maxFrame, buf)
}

// WriteFrame writes payload as one length-prefixed frame. Callers using a
// buffered writer flush themselves (the gateway flushes per frame on both
// hops).
func WriteFrame(w io.Writer, payload []byte) error {
	return writeFrame(w, payload)
}

// ParseHelloPayload decodes a Hello frame payload — the gateway's routing
// input.
func ParseHelloPayload(payload []byte) (Hello, error) {
	return parseHello(payload)
}

// NormalizeHello validates a Hello and resolves catalog defaults (zero
// Rounds becomes the code's default), exactly as the server does before
// building pools — so the gateway's session hash key and the backend's
// pool key agree on the resolved round count.
func NormalizeHello(h Hello) (Hello, error) {
	return validateHello(h)
}

// AckGeometry is the session geometry a HelloAck carries, as the gateway
// needs it: reply-frame layout (mech bytes) and the pool width to
// advertise.
type AckGeometry struct {
	NumDets, NumMechs, PoolSize int
}

// ParseHelloAckPayload decodes a HelloAck frame payload. An Error frame
// in its place returns the server's rejection as the error.
func ParseHelloAckPayload(payload []byte) (AckGeometry, error) {
	ack, err := parseHelloAck(payload)
	if err != nil {
		return AckGeometry{}, err
	}
	return AckGeometry{
		NumDets:  int(ack.numDets),
		NumMechs: int(ack.numMechs),
		PoolSize: int(ack.poolSize),
	}, nil
}

// AppendErrorFrame encodes an Error frame payload (the gateway's own
// rejections: no healthy backend, journal overflow, replay divergence).
func AppendErrorFrame(b []byte, msg string) []byte {
	return appendError(b, msg)
}

// ParseErrorFrame extracts an Error frame's message (best effort).
func ParseErrorFrame(payload []byte) string {
	return parseErrorBody(payload)
}

// AppendStatsReplyFrame encodes a ServerSnapshot as a StatsReply payload —
// how the gateway answers intercepted msgStats requests with the
// fleet-aggregated snapshot.
func AppendStatsReplyFrame(b []byte, snap ServerSnapshot) []byte {
	return appendStatsReply(b, snap)
}

// ParseStatsReplyFrame decodes a StatsReply payload — how the gateway
// reads the per-backend snapshots it aggregates.
func ParseStatsReplyFrame(payload []byte) (ServerSnapshot, error) {
	return parseStatsReply(payload)
}

// AppendCanonicalFrame appends to dst the replay-comparison form of a
// server→client frame: BatchReply and StreamCommit frames get their
// per-response service-latency fields zeroed (timings are measurements,
// not part of the determinism contract), every other type passes through
// unchanged. Two canonical frames being equal is exactly the per-session
// replay guarantee: same flags, same iteration and flip counts, same
// error estimates, same committed mechanisms. mechBytes is the session's
// packed error-estimate width from the HelloAck. Malformed frames are
// appended unmodified — the comparison then fails loudly instead of
// masking bytes at a wrong offset. The gateway's replay comparator
// canonicalizes every frame of a re-driven session, so it recycles one
// dst buffer instead of copying per frame.
func AppendCanonicalFrame(dst, payload []byte, mechBytes int) []byte {
	base := len(dst)
	dst = append(dst, payload...)
	out := dst[base:]
	if len(out) == 0 {
		return dst
	}
	switch out[0] {
	case msgBatchReply:
		if len(out) < batchHeaderLen {
			return dst
		}
		count := int(binary.LittleEndian.Uint16(out[1+8:]))
		itemLen := replyItemFixedLen + mechBytes
		if len(out) != batchHeaderLen+count*itemLen {
			return dst
		}
		for i := 0; i < count; i++ {
			// flags(1) + iterations(4) + flipCount(4), then latency(8)
			off := batchHeaderLen + i*itemLen + 1 + 4 + 4
			clear(out[off : off+8])
		}
	case msgStreamCommit:
		// type(1) + id(8) + window(4) + flags(1) + first(2) + end(2), then
		// latency(8)
		const off = 1 + 8 + 4 + 1 + 2 + 2
		if len(out) < off+8 {
			return dst
		}
		clear(out[off : off+8])
	}
	return dst
}

// FrameType returns payload[0], the message-type byte (0 for an empty
// payload, which readFrame never produces).
func FrameType(payload []byte) byte {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}

// SessionKey is the fleet routing key: every field a backend's pool and
// stream-pool construction depends on — (code, rounds, p, spec) plus the
// gateway's default stream window/commit — rendered canonically. Sessions
// with equal keys share warm pools, so the gateway rendezvous-hashes this
// key (not the connection) onto backends: identical workloads always land
// where their decoders are already warm. The Hello must be normalized
// first (NormalizeHello), or the catalog-default and explicit round
// counts would hash apart.
func SessionKey(h Hello, window, commit int) string {
	return fmt.Sprintf("%s/W%d/C%d", poolKey(h), window, commit)
}
