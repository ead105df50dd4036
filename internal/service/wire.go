package service

import "encoding/binary"

// Wire access for the fleet tier (DESIGN.md §12). The gateway in
// internal/fleet proxies this package's protocol frame by frame — it
// routes on the Hello, splices everything else verbatim, and re-drives
// journaled frames onto a fresh backend on failover — so it needs just
// enough of the wire surface to read frames, classify them, and compare
// replayed replies against what it already delivered. Conn (the frame
// IO), the Hello, Error and StatsReply codecs and the Msg* type bytes are
// exported where they are defined; this file holds what only the gateway
// needs.
// The frame layouts stay private to this package.

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
	case MsgBatchReply:
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
	case MsgStreamCommit:
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
// payload, which Conn.Read never returns).
func FrameType(payload []byte) byte {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}

// SessionKey is the fleet routing key: the backend's pool key, every
// field its pool construction depends on (code, rounds, p, spec),
// rendered canonically. Sessions with equal keys share warm pools, so
// the gateway rendezvous-hashes this key (not the connection) onto
// backends: identical workloads always land where their decoders are
// already warm. The Hello must be normalized first (ValidateHello), or
// the catalog-default and explicit round counts would hash apart.
func SessionKey(h Hello) string { return poolKey(h) }
