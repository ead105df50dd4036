package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"bpsf/internal/obs"
)

// Stats frame codecs (DESIGN.md §10). The request is a bare type byte.
// The reply body is the ServerSnapshot as encoding/json writes it — the
// /statusz document, compact — behind a header naming this build's stage
// and bucket counts: JSON zero-fills or truncates fixed-size arrays
// without complaint, so a peer built with other counts is refused rather
// than misread.

func appendStatsRequest(b []byte) []byte {
	return append(b, MsgStats)
}

func parseStatsRequest(payload []byte) error {
	r := &reader{b: payload}
	if t := r.u8(); t != MsgStats {
		return fmt.Errorf("service: expected Stats, got message type %d", t)
	}
	if r.rest() != 0 {
		return fmt.Errorf("service: stats request carries %d trailing bytes", r.rest())
	}
	return nil
}

// AppendStatsReply encodes snap as a StatsReply: type byte, stage count
// u8, bucket count u16, then the JSON document. A snapshot encoding/json
// refuses goes out as an Error frame, which the peer's parser returns as
// its error.
func AppendStatsReply(b []byte, snap ServerSnapshot) []byte {
	body, err := json.Marshal(snap)
	if err != nil {
		return AppendError(b, fmt.Sprintf("service: encode stats reply: %v", err))
	}
	b = append(b, MsgStatsReply, byte(obs.NumStages))
	b = appendU16(b, obs.NumBuckets)
	return append(b, body...)
}

// ParseStatsReply decodes a StatsReply payload; an Error frame in its
// place returns the peer's message as the error.
func ParseStatsReply(payload []byte) (ServerSnapshot, error) {
	var snap ServerSnapshot
	r := &reader{b: payload}
	if t := r.u8(); t != MsgStatsReply {
		if t == MsgError {
			return snap, fmt.Errorf("service: %s", ParseErrorBody(payload))
		}
		return snap, fmt.Errorf("service: expected StatsReply, got message type %d", t)
	}
	stages, buckets := int(r.u8()), int(r.u16())
	if r.err != nil {
		return snap, r.err
	}
	if stages != int(obs.NumStages) || buckets != obs.NumBuckets {
		return snap, fmt.Errorf("service: stats reply carries %d stages × %d buckets, this build knows %d × %d",
			stages, buckets, int(obs.NumStages), obs.NumBuckets)
	}
	body := payload[r.off:]
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return ServerSnapshot{}, fmt.Errorf("service: stats reply: %w", err)
	}
	if end := dec.InputOffset(); end != int64(len(body)) {
		return ServerSnapshot{}, fmt.Errorf("service: stats reply carries %d trailing bytes", int64(len(body))-end)
	}
	if err := checkSnapshotHists(&snap); err != nil {
		return ServerSnapshot{}, err
	}
	return snap, nil
}

// checkSnapshotHists refuses histograms whose count disagrees with their
// buckets: obs.MergeHist divides by the summed N, which a forged
// negative N can bring to zero.
func checkSnapshotHists(snap *ServerSnapshot) error {
	for _, ps := range snap.Pools {
		if err := checkHist(ps.Latency); err != nil {
			return fmt.Errorf("service: pool %q latency: %w", ps.Pool, err)
		}
	}
	for _, set := range []obs.StageSnapshot{snap.Stages, snap.StreamStages} {
		for st, h := range set.Stages {
			if err := checkHist(h); err != nil {
				return fmt.Errorf("service: stage %v: %w", obs.Stage(st), err)
			}
		}
		if err := checkHist(set.Total); err != nil {
			return fmt.Errorf("service: stage total: %w", err)
		}
	}
	return nil
}

func checkHist(h obs.HistSnapshot) error {
	if h.N < 0 {
		return fmt.Errorf("histogram count %d is negative", h.N)
	}
	var sum uint64
	for _, c := range h.Buckets {
		if sum+c < sum {
			return errors.New("histogram buckets overflow")
		}
		sum += c
	}
	if sum != uint64(h.N) {
		return fmt.Errorf("histogram buckets sum to %d, N is %d", sum, h.N)
	}
	return nil
}
