package service

import (
	"bufio"
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"bpsf/internal/obs"
)

// FuzzFrameRoundTrip fuzzes the length-prefixed wire layer and every
// payload parser: frames must round-trip byte-identically through
// writeFrame/readFrameInto, a structured Hello must survive
// ParseHello(appendHello(h)) == h, and arbitrary bytes must never panic
// any parser — they either parse or return an error.
func FuzzFrameRoundTrip(f *testing.F) {
	hello, _ := appendHello(nil, Hello{
		Code: "bb72", Rounds: 2, P: 0.003, StreamSeed: 7, Deadline: time.Millisecond,
		Spec: Spec{Kind: "bpsf", BPIters: 100, Phi: 50, WMax: 10, NS: 10},
	})
	f.Add(hello, uint8(4))
	f.Add(appendHelloAck(nil, helloAck{sessionID: 1, numDets: 24, numMechs: 201, poolSize: 2}), uint8(26))
	f.Add(appendBatchHeader(nil, 3, 0), uint8(0))
	f.Add(AppendError(nil, "boom"), uint8(1))
	f.Add(appendStreamOpen(nil, 3, 1), uint8(2))
	f.Add(appendStreamAck(nil, streamAck{id: 9, window: 3, commit: 1, detsPerRound: []int{4, 8, 4}}), uint8(3))
	f.Add(appendStreamRoundsHeader(nil, 9, 0, 1), uint8(4))
	f.Add(appendStreamCommit(nil, streamCommitMsg{id: 9, window: 0, flags: flagStreamWindowOK,
		firstRound: 0, endRound: 1, latency: time.Millisecond, mechs: []byte{0xAB}}), uint8(1))
	f.Add(appendSample(nil, 12, 64), uint8(5))
	f.Add(appendStatsRequest(nil), uint8(0))
	var statsHist obs.Histogram
	statsHist.Observe(time.Millisecond)
	statsHist.Observe(3 * time.Millisecond)
	f.Add(AppendStatsReply(nil, ServerSnapshot{
		Uptime:        time.Minute,
		SessionsTotal: 2, SessionsActive: 1,
		Pools: []PoolStats{{Pool: "bb72/r2/p0.02/bpsf", Size: 2,
			Admitted: 2, Decoded: 2, Batches: 1, Coalesced: 2,
			Latency: statsHist.Snapshot()}},
		Streams: StreamStats{Opened: 1, Windows: 2},
		Stages:  obs.StageSnapshot{Traces: []obs.Trace{{End: 99, Total: time.Millisecond}}},
		Backends: []BackendStats{
			{Name: "b0", Addr: "127.0.0.1:9000", Healthy: true, Sessions: 1,
				SessionsTotal: 3, Requests: 40, Failovers: 1, Replayed: 12},
			{Name: "b1", Addr: "127.0.0.1:9001", Draining: true},
		},
	}), uint8(7))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{MsgBatch, 0xff}, uint8(255))
	f.Fuzz(func(t *testing.T, payload []byte, widthSeed uint8) {
		width := int(widthSeed)%64 + 1 // syndrome/estimate byte width for the batch parsers

		// 1. Arbitrary bytes through every parser: must not panic.
		ParseHello(payload)
		parseHelloAck(payload)
		parseBatchInto(payload, width, nil)
		parseBatchReplyInto(payload, width, nil)
		parseSample(payload)
		ParseErrorBody(payload)
		parseStreamOpen(payload)
		parseStreamAck(payload)
		parseStreamRounds(payload, []int{width, 8 * width, 1}, nil)
		parseStreamCommit(payload, width)
		parseStatsRequest(payload)
		ParseStatsReply(payload)

		// 2. Frame layer round-trip: decode(encode(x)) == x.
		if len(payload) > 0 && len(payload) <= DefaultMaxFrame {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := writeFrame(bw, payload); err != nil {
				t.Fatalf("writeFrame: %v", err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			got, err := readFrameInto(bufio.NewReader(&buf), DefaultMaxFrame, nil)
			if err != nil {
				t.Fatalf("readFrameInto(writeFrame(x)): %v", err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("frame round-trip: got %x, want %x", got, payload)
			}
		}

		// 3. Arbitrary bytes as a frame stream: must not panic, and a
		// successfully read frame obeys the length prefix.
		if got, err := readFrameInto(bufio.NewReader(bytes.NewReader(payload)), 1<<16, nil); err == nil {
			if len(got) > 1<<16 {
				t.Fatalf("readFrameInto returned %d bytes above the guard", len(got))
			}
		}

		// 4. Structured Hello round-trip when the payload parses: re-encoding
		// the parsed Hello must reproduce the parse.
		if h, err := ParseHello(payload); err == nil {
			enc, err := appendHello(nil, h)
			if err != nil {
				t.Fatalf("re-encode parsed hello: %v", err)
			}
			h2, err := ParseHello(enc)
			if err != nil {
				t.Fatalf("re-parse encoded hello: %v", err)
			}
			// compare P at the bit level: a fuzzed payload can decode to NaN,
			// which is != itself
			pBits, p2Bits := math.Float64bits(h.P), math.Float64bits(h2.P)
			h.P, h2.P = 0, 0
			if !reflect.DeepEqual(h2, h) || pBits != p2Bits {
				t.Fatalf("hello round-trip: %+v (P=%#x) != %+v (P=%#x)", h2, p2Bits, h, pBits)
			}
		}

		// 4b. Sample-frame round-trip when the payload parses.
		if id, count, err := parseSample(payload); err == nil {
			id2, count2, err := parseSample(appendSample(nil, id, count))
			if err != nil {
				t.Fatalf("re-parse encoded sample: %v", err)
			}
			if id2 != id || count2 != count {
				t.Fatalf("sample round-trip: (%d,%d) != (%d,%d)", id2, count2, id, count)
			}
		}

		// 4c. Stats-reply round-trip when the payload parses: encoding the
		// parsed snapshot and parsing it again must give the same snapshot
		// (parse∘encode∘parse = parse).
		if snap, err := ParseStatsReply(payload); err == nil {
			snap2, err := ParseStatsReply(AppendStatsReply(nil, snap))
			if err != nil {
				t.Fatalf("re-parse encoded stats reply: %v", err)
			}
			if !reflect.DeepEqual(snap2, snap) {
				t.Fatalf("stats reply round-trip: %+v != %+v", snap2, snap)
			}
		}

		// 5. Structured stream-frame round-trips when the payload parses:
		// re-encoding a parsed StreamAck / StreamCommit must reproduce it.
		if a, err := parseStreamAck(payload); err == nil {
			a2, err := parseStreamAck(appendStreamAck(nil, a))
			if err != nil {
				t.Fatalf("re-parse encoded stream ack: %v", err)
			}
			if a2.id != a.id || a2.window != a.window || a2.commit != a.commit ||
				len(a2.detsPerRound) != len(a.detsPerRound) {
				t.Fatalf("stream ack round-trip: %+v != %+v", a2, a)
			}
			for i := range a.detsPerRound {
				if a2.detsPerRound[i] != a.detsPerRound[i] {
					t.Fatalf("stream ack round-trip: %+v != %+v", a2, a)
				}
			}
		}
		if m, err := parseStreamCommit(payload, width); err == nil {
			m2, err := parseStreamCommit(appendStreamCommit(nil, m), width)
			if err != nil {
				t.Fatalf("re-parse encoded stream commit: %v", err)
			}
			if m2.id != m.id || m2.window != m.window || m2.flags != m.flags ||
				m2.firstRound != m.firstRound || m2.endRound != m.endRound ||
				m2.latency != m.latency || !bytes.Equal(m2.mechs, m.mechs) {
				t.Fatalf("stream commit round-trip: %+v != %+v", m2, m)
			}
		}
	})
}
