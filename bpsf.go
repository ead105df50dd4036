// Package bpsf is a from-scratch Go implementation of the BP-SF decoder for
// quantum LDPC codes described in
//
//	Wang, Li, Mueller. "Fully Parallelized BP Decoding for Quantum LDPC
//	Codes Can Outperform BP-OSD." HPCA 2026 (arXiv:2507.00254),
//
// together with every substrate the paper's evaluation depends on: GF(2)
// linear algebra, the BB/coprime-BB/GB/HGP/SHYPS code constructions,
// min-sum belief propagation (flooding and layered), the BP-OSD baseline
// (OSD-0/E/CS), a stabilizer-circuit simulator with detector-error-model
// extraction (the Stim substitution), code-capacity and circuit-level noise
// models, and the Monte-Carlo/latency harnesses that regenerate the paper's
// tables and figures.
//
// # Quickstart
//
//	code, _ := bpsf.NewCode("bb144")
//	dec, _ := bpsf.NewBPSFDecoder(code.HZ, bpsf.UniformPriors(code.N, 0.01),
//	    bpsf.BPSFConfig{
//	        Init:    bpsf.BPConfig{MaxIter: 100},
//	        PhiSize: 20, WMax: 1, Policy: bpsf.Exhaustive,
//	    })
//	out := dec.Decode(syndrome)
//
// See examples/ for runnable programs and DESIGN.md for the experiment
// index.
package bpsf

import (
	"io"

	"bpsf/internal/bp"
	bpsfcore "bpsf/internal/bpsf"
	"bpsf/internal/code"
	"bpsf/internal/codes"
	"bpsf/internal/dem"
	"bpsf/internal/gf2"
	"bpsf/internal/memexp"
	"bpsf/internal/noise"
	"bpsf/internal/osd"
	"bpsf/internal/service"
	"bpsf/internal/sim"
	"bpsf/internal/sparse"
	"bpsf/internal/window"
)

// Core value types.
type (
	// Vec is a GF(2) bit vector (errors, syndromes).
	Vec = gf2.Vec
	// Matrix is a sparse binary matrix (parity checks).
	Matrix = sparse.Mat
	// Code is a CSS or CSS-type subsystem stabilizer code.
	Code = code.CSS
	// DEM is a detector error model extracted from a noisy circuit.
	DEM = dem.DEM
	// Shot is one sampled circuit-level experiment outcome.
	Shot = dem.Shot
)

// Decoder configuration types.
type (
	// BPConfig parameterizes min-sum belief propagation.
	BPConfig = bp.Config
	// BPSFConfig parameterizes the BP-SF decoder (the paper's Algorithm 1).
	BPSFConfig = bpsfcore.Config
	// BPSFResult is the detailed BP-SF decode report.
	BPSFResult = bpsfcore.Result
	// OSDConfig parameterizes ordered-statistics post-processing.
	OSDConfig = osd.Config
	// Outcome is the unified per-decode report used by the harness.
	Outcome = sim.Outcome
	// Decoder is the harness-facing decoder interface.
	Decoder = sim.Decoder
)

// BP schedule and trial-policy constants re-exported for configuration.
const (
	// Flooding updates all messages each iteration (default BP schedule).
	Flooding = bp.Flooding
	// Layered sweeps checks serially (used for J288,12,18K circuit noise).
	Layered = bp.Layered
	// Exhaustive enumerates all trial vectors of weight ≤ WMax over Φ.
	Exhaustive = bpsfcore.Exhaustive
	// Sampled draws NS random trial vectors per weight.
	Sampled = bpsfcore.Sampled
	// OSD0, OSDE and OSDCS select the OSD post-processing method.
	OSD0  = osd.OSD0
	OSDE  = osd.OSDE
	OSDCS = osd.OSDCS
)

// NewCode builds one of the evaluated codes by catalog name: the paper's
// "bb72", "bb144", "bb288", "coprime126", "coprime154", "gb254",
// "shyps225", plus the matchable surface family "rsurf3", "rsurf5",
// "toric4".
func NewCode(name string) (*Code, error) { return codes.Get(name) }

// CodeNames lists the catalog names.
func CodeNames() []string { return codes.Names() }

// DefaultRounds returns the paper's syndrome-extraction round count for a
// catalog code (its distance d), or 0 for unknown names.
func DefaultRounds(name string) int {
	if e, ok := codes.Catalog()[name]; ok {
		return e.Rounds
	}
	return 0
}

// Surface returns the distance-d unrotated surface code (a hypergraph
// product of repetition codes) — not part of the paper's evaluation but a
// convenient small test target.
func Surface(d int) (*Code, error) { return codes.Surface(d) }

// RotatedSurface returns the distance-d rotated surface code Jd²,1,dK
// (odd d ≥ 3) — the matchable-code workload of the union-find decoder.
// Catalog names "rsurf3" and "rsurf5" select the evaluated instances.
func RotatedSurface(d int) (*Code, error) { return codes.RotatedSurface(d) }

// Toric returns the L×L toric code J2L²,2,LK (catalog name "toric4" for
// L = 4): matchable with no boundary.
func Toric(l int) (*Code, error) { return codes.Toric(l) }

// UniformPriors returns an n-vector of identical per-bit error priors.
func UniformPriors(n int, p float64) []float64 { return noise.UniformPriors(n, p) }

// NewVec returns a zero GF(2) vector of length n.
func NewVec(n int) Vec { return gf2.NewVec(n) }

// VecFromSupport returns a length-n vector with ones at the given
// positions.
func VecFromSupport(n int, support []int) Vec { return gf2.VecFromSupport(n, support) }

// DepolarizingMarginal returns the per-qubit X-component (equivalently
// Z-component) probability 2p/3 of the code-capacity depolarizing channel.
func DepolarizingMarginal(p float64) float64 { return noise.MarginalProb(p) }

// NewBPDecoder builds a plain min-sum BP decoder over parity-check matrix h.
func NewBPDecoder(h *Matrix, priors []float64, cfg BPConfig) Decoder {
	return sim.NewBP(h, priors, cfg)
}

// NewBPOSDDecoder builds the BP-OSD baseline ("BP1000-OSD10" style).
func NewBPOSDDecoder(h *Matrix, priors []float64, bpCfg BPConfig, osdCfg OSDConfig) Decoder {
	return sim.NewBPOSD(h, priors, bpCfg, osdCfg)
}

// NewBPSFDecoder builds the paper's BP-SF decoder.
func NewBPSFDecoder(h *Matrix, priors []float64, cfg BPSFConfig) (Decoder, error) {
	return sim.NewBPSF(h, priors, cfg)
}

// NewBPSFRaw builds a BP-SF decoder exposing the full per-trial result
// (bpsfcore.Result) instead of the harness Outcome.
func NewBPSFRaw(h *Matrix, priors []float64, cfg BPSFConfig) (*bpsfcore.Decoder, error) {
	return bpsfcore.New(h, priors, cfg)
}

// NewUFDecoder builds the deterministic union-find decoder (DESIGN.md §6):
// spanning-tree peeling on matchable check matrices (every column of
// weight ≤ 2, e.g. surface and toric codes), cluster-local GF(2)
// elimination on general ones. It uses no priors and holds no randomness.
func NewUFDecoder(h *Matrix) Decoder { return sim.NewUF(h) }

// DecoderNames lists the decoder registry names ("bp", "bposd", "bpsf",
// "uf", "windowed") — the -decoder vocabulary of the CLIs and the decode
// service.
func DecoderNames() []string { return sim.DecoderNames() }

// Sliding-window round layouts (internal/window; window/commit semantics
// and the streaming determinism contract in DESIGN.md §7).
type (
	// WindowLayout groups a check matrix's detector rows into contiguous
	// rounds — the axis sliding windows move along.
	WindowLayout = window.Layout
	// WindowSpan is one window of the partition: decoded rounds
	// [Start, End), committed rounds [Start, CommitEnd).
	WindowSpan = window.Span
)

// RowRounds is the generic layout-free round layout: every check-matrix
// row is its own round.
func RowRounds(rows int) WindowLayout { return window.RowRounds(rows) }

// PartitionRounds slices a round count into sliding windows of at most w
// rounds committing c each (the last window commits through the end).
func PartitionRounds(rounds, w, c int) ([]WindowSpan, error) {
	return window.PartitionRounds(rounds, w, c)
}

// BuildMemoryDEM generates the d-round Z-basis memory experiment for a code
// under the paper's uniform circuit-level noise model and extracts its
// detector error model.
func BuildMemoryDEM(c *Code, rounds int) (*DEM, error) {
	circ, err := memexp.Build(c, rounds, memexp.Uniform())
	if err != nil {
		return nil, err
	}
	return dem.Extract(circ)
}

// NewDEMSampler returns a sampler of circuit-level shots at physical error
// rate p.
func NewDEMSampler(d *DEM, p float64, seed int64) *dem.Sampler {
	return dem.NewSampler(d, p, seed)
}

// Experiment harness re-exports.
type (
	// MCConfig controls a Monte-Carlo run.
	MCConfig = sim.Config
	// MCResult summarizes a Monte-Carlo run.
	MCResult = sim.Result
	// Factory builds a decoder for a parity-check matrix and priors.
	Factory = sim.Factory
)

// RunCapacity evaluates a decoder family under the code-capacity model.
func RunCapacity(c *Code, mk Factory, cfg MCConfig) (*MCResult, error) {
	return sim.RunCapacity(c, mk, cfg)
}

// RunCircuit evaluates a decoder on a detector error model.
func RunCircuit(d *DEM, rounds int, mk Factory, cfg MCConfig) (*MCResult, error) {
	return sim.RunCircuit(d, rounds, mk, cfg)
}

// LatencyRow is one per-shot time distribution of a latency study.
type LatencyRow = sim.LatencyRow

// LatencyStudy derives the paper's latency rows from a baseline run and a
// serial decoder run over the same shots; see sim.LatencyStudy.
func LatencyStudy(base, dec *MCResult, workers []int) ([]LatencyRow, error) {
	return sim.LatencyStudy(base, dec, workers)
}

// WriteLatency renders latency rows as a table; see sim.WriteLatency.
func WriteLatency(w io.Writer, rows []LatencyRow) error {
	_, err := sim.WriteLatency(w, rows)
	return err
}

// Real-time decode service re-exports (internal/service; wire protocol and
// pool semantics in DESIGN.md §5).
type (
	// DecodeServer is the streaming syndrome server behind cmd/bpsf-serve.
	DecodeServer = service.Server
	// ServeOptions configures a DecodeServer (pool size, queue depth, ...).
	ServeOptions = service.Options
	// ServiceClient is one decode session against a DecodeServer.
	ServiceClient = service.Client
	// ServiceHello opens a session: code, rounds, error rate, decoder spec,
	// stream seed and shedding deadline.
	ServiceHello = service.Hello
	// ServiceSpec selects the decoder of a session (the one decoder
	// configuration type, sim.Spec).
	ServiceSpec = service.Spec
	// ServiceResponse is one syndrome's decode report.
	ServiceResponse = service.Response
	// ServicePoolStats is one warm pool's cumulative service report.
	ServicePoolStats = service.PoolStats
	// ServiceStream is one windowed decode stream within a session
	// (Client.OpenStream): rounds go up, per-window commits come back.
	ServiceStream = service.ClientStream
	// ServiceStreamCommit is one window's committed correction on the wire.
	ServiceStreamCommit = service.StreamCommit
	// ServiceStreamResult is a completed stream's verdict.
	ServiceStreamResult = service.StreamResult
	// ServiceStreamStats is the server's cumulative windowed-stream report.
	ServiceStreamStats = service.StreamStats
)

// NewDecodeServer builds a streaming decode server; start it with Listen,
// stop it with Drain.
func NewDecodeServer(opts ServeOptions) *DecodeServer { return service.NewServer(opts) }

// DialDecodeService opens a decode session with a running server.
func DialDecodeService(addr string, h ServiceHello) (*ServiceClient, error) {
	return service.Dial(addr, h)
}

// ServiceRequestSeed is the deterministic decoder seed applied to the
// index-th syndrome of a session opened with streamSeed (the service
// determinism contract, DESIGN.md §5).
func ServiceRequestSeed(streamSeed int64, index int) int64 {
	return service.RequestSeed(streamSeed, index)
}
