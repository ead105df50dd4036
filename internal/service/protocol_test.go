package service

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"bpsf/internal/gf2"
	"bpsf/internal/obs"
	"bpsf/internal/osd"
	"bpsf/internal/sim"
	"bpsf/internal/window"
)

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{
		Code:       "bb144",
		Rounds:     12,
		P:          0.003,
		StreamSeed: -977,
		Deadline:   250 * time.Microsecond,
		Spec:       Spec{Kind: "bpsf", BPIters: 100, Phi: 50, WMax: 10, NS: 10, Layered: true},
	}
	// every kind the wire carries, as its registry default
	hellos := []Hello{in}
	for _, kind := range SpecKinds() {
		h := in
		h.Spec = sim.DecoderSpecs()[kind]
		hellos = append(hellos, h)
	}
	for _, h := range hellos {
		payload, err := appendHello(nil, h)
		if err != nil {
			t.Fatalf("%s: %v", h.Spec, err)
		}
		out, err := ParseHello(payload)
		if err != nil {
			t.Fatalf("%s: %v", h.Spec, err)
		}
		if !reflect.DeepEqual(out, h) {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", h, out)
		}
	}

	// a Hello from a build of another protocol version is refused: the
	// stats reply's JSON shape is part of the version (2), and so is the
	// DEM column set that error estimates and stream commits index (3)
	payload, _ := appendHello(nil, in)
	for _, v := range []byte{1, 2, protocolVersion + 1} {
		payload[5] = v // type byte, u32 magic, version
		if _, err := ParseHello(payload); err == nil || !strings.Contains(err.Error(), "protocol version") {
			t.Fatalf("protocol version %d accepted (err %v)", v, err)
		}
	}

	// a field the wire cannot carry is refused, never dropped or truncated
	for _, bad := range []Spec{
		{Kind: "bp", BPIters: 10, Window: 3},
		{Kind: "bp", BPIters: 10, Commit: 1},
		{Kind: "uf", Layout: window.RowRounds(4)},
		{Kind: "bpsf", BPIters: 10, Phi: 4, WMax: 1, Workers: 2},
		{Kind: "bposd", BPIters: 10, OSDMethod: osd.OSD0},
		{Kind: "bp", BPIters: math.MaxUint32 + 1},
		{Kind: "bp", BPIters: -1},
		{Kind: "bposd", BPIters: 10, OSDOrder: math.MaxUint16 + 1},
		{Kind: "bpsf", BPIters: 10, Phi: math.MaxUint16 + 1, WMax: 1},
		{Kind: "bpsf", BPIters: 10, Phi: 4, WMax: math.MaxUint16 + 1},
		{Kind: "bpsf", BPIters: 10, Phi: 4, WMax: 1, NS: math.MaxUint16 + 1},
		{Kind: "bpsf", BPIters: 10, Phi: 4, WMax: 1, NS: -1},
	} {
		h := in
		h.Spec = bad
		if _, err := appendHello(nil, h); err == nil {
			t.Errorf("%+v encoded", bad)
		}
		if _, err := ValidateHello(h); err == nil {
			t.Errorf("%+v validated", bad)
		}
	}
}

// TestHelloRejectsBadP pins the physical-error-rate check the server, the
// gateway and the client share: a Hello whose P is NaN or outside (0, 1)
// is refused, and the round trip through the wire does not launder it.
func TestHelloRejectsBadP(t *testing.T) {
	for _, p := range []float64{math.NaN(), 0, -0.1, 1, 1.5, math.Inf(1)} {
		h := Hello{Code: "bb72", P: p, Spec: Spec{Kind: "bp", BPIters: 10}}
		if _, err := ValidateHello(h); err == nil {
			t.Errorf("P = %v validated", p)
		}
		payload, err := appendHello(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseHello(payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateHello(parsed); err == nil {
			t.Errorf("P = %v validated after a wire round trip", p)
		}
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	if _, err := ParseHello([]byte{MsgHello, 1, 2, 3}); err == nil {
		t.Fatal("truncated hello accepted")
	}
	if _, err := ParseHello([]byte{MsgBatch}); err == nil {
		t.Fatal("wrong type accepted")
	}
	good, _ := appendHello(nil, Hello{Code: "bb72", P: 0.01, Spec: Spec{Kind: "bp", BPIters: 10}})
	bad := append([]byte(nil), good...)
	bad[1] ^= 0xFF // corrupt magic
	if _, err := ParseHello(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := appendHello(nil, Hello{Spec: Spec{Kind: "nope"}}); err == nil {
		t.Fatal("unknown kind encoded")
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	in := helloAck{sessionID: 42, numDets: 864, numMechs: 11646, poolSize: 8}
	out, err := parseHelloAck(appendHelloAck(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("ack mismatch: %+v vs %+v", in, out)
	}
	// an error frame in place of the ack surfaces the server's message
	if _, err := parseHelloAck(AppendError(nil, "no such code")); err == nil {
		t.Fatal("error frame accepted as ack")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const dets = 130
	detBytes := (dets + 7) / 8
	vecs := make([]gf2.Vec, 5)
	payload := appendBatchHeader(nil, 7, len(vecs))
	for i := range vecs {
		vecs[i] = gf2.NewVec(dets)
		for j := 0; j < dets; j++ {
			vecs[i].Set(j, r.Intn(2) == 1)
		}
		payload = vecs[i].AppendBytes(payload)
	}
	id, syns, err := parseBatchInto(payload, detBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || len(syns) != len(vecs) {
		t.Fatalf("id=%d count=%d", id, len(syns))
	}
	for i, raw := range syns {
		if !bytes.Equal(raw, vecs[i].AppendBytes(nil)) {
			t.Fatalf("syndrome %d corrupted", i)
		}
	}
	if _, _, err := parseBatchInto(payload[:len(payload)-1], detBytes, nil); err == nil {
		t.Fatal("short batch accepted")
	}
}

func TestBatchReplyRoundTrip(t *testing.T) {
	const mechs = 77
	mechBytes := (mechs + 7) / 8
	errHat := gf2.VecFromSupport(mechs, []int{0, 13, 76})
	in := []Response{
		{Success: true, Iterations: 31, FlipCount: 3, Latency: 91 * time.Microsecond, ErrHat: errHat.AppendBytes(nil)},
		{Shed: true},
	}
	payload := appendBatchReplyHeader(nil, 9, len(in))
	for i := range in {
		payload = appendResponse(payload, &in[i], mechBytes)
	}
	id, out, err := parseBatchReplyInto(payload, mechBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != 9 || len(out) != 2 {
		t.Fatalf("id=%d count=%d", id, len(out))
	}
	if !out[0].Success || out[0].Iterations != 31 || out[0].FlipCount != 3 ||
		out[0].Latency != 91*time.Microsecond || !bytes.Equal(out[0].ErrHat, in[0].ErrHat) {
		t.Fatalf("response 0 corrupted: %+v", out[0])
	}
	if !out[1].Shed || out[1].Success {
		t.Fatalf("shed flag lost: %+v", out[1])
	}
	// shed responses carry a zero estimate of full width
	if len(out[1].ErrHat) != mechBytes || !bytes.Equal(out[1].ErrHat, make([]byte, mechBytes)) {
		t.Fatal("shed estimate not zero-padded")
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	bw, br := bufio.NewWriter(&buf), bufio.NewReader(&buf)
	if err := writeFrame(bw, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := readFrameInto(br, 64, nil)
	if err != nil || string(got) != "hello" {
		t.Fatalf("frame round trip: %q, %v", got, err)
	}
	// oversized frames are rejected before allocation
	writeFrame(bw, make([]byte, 128))
	bw.Flush()
	if _, err := readFrameInto(br, 64, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestSpecValidateAndLabel(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Kind: "bp", BPIters: 1000}, "BP1000"},
		{Spec{Kind: "bposd", BPIters: 1000, OSDOrder: 10}, "BP1000-OSD10"},
		{Spec{Kind: "bpsf", BPIters: 100, Phi: 50, WMax: 10, NS: 10}, "BP-SF(BP100,wmax=10,phi=50,ns=10)"},
		{Spec{Kind: "bpsf", BPIters: 50, Phi: 8, WMax: 1}, "BP-SF(BP50,wmax=1,phi=8)"},
		{Spec{Kind: "bp", BPIters: 30, Layered: true}, "BP30,layered"},
	} {
		if err := tc.spec.Validate(); err != nil {
			t.Errorf("%+v: %v", tc.spec, err)
		}
		if got := tc.spec.String(); got != tc.want {
			t.Errorf("label = %q, want %q", got, tc.want)
		}
	}
	for _, bad := range []Spec{
		{Kind: "bp"},                         // no iterations
		{Kind: "magic", BPIters: 10},         // unknown kind
		{Kind: "bpsf", BPIters: 10, WMax: 2}, // no phi
		{Kind: "bpsf", BPIters: 10, Phi: 10}, // no wmax
	} {
		if bad.Validate() == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h obs.Histogram
	if (h.Snapshot() != obs.HistSnapshot{}) {
		t.Fatal("empty snapshot not zero")
	}
	// 90 fast + 10 slow observations: p50 within 2× of fast, p999 at the tail
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.N != 100 || s.Min != 100*time.Microsecond || s.Max != 50*time.Millisecond {
		t.Fatalf("bounds wrong: %+v", s)
	}
	if s.P50 < 100*time.Microsecond || s.P50 > 200*time.Microsecond {
		t.Fatalf("p50 = %v, want within 2x of 100µs", s.P50)
	}
	if s.P999 < 50*time.Millisecond/2 || s.P999 > 50*time.Millisecond {
		t.Fatalf("p999 = %v, want in the slow bucket", s.P999)
	}
	if s.Avg != (90*100*time.Microsecond+10*50*time.Millisecond)/100 {
		t.Fatalf("avg = %v", s.Avg)
	}
}
