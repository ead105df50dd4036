// Package obs is the dependency-free observability core shared by the
// decode service, the fleet gateway and the CLIs: the power-of-two
// latency histogram with exported bucket counts, a zero-alloc
// per-request stage timer with fixed stage slots, a stage histogram bank
// that also keeps the slowest request traces, runtime telemetry, fleet
// merging, and Prometheus text exposition.
//
// Every record-side primitive (HistData.Observe, Span marks,
// StageSet.Record) allocates zero bytes and is safe on
// a nil receiver, so instrumentation can be threaded through hot paths
// unconditionally. Plain counters are sync/atomic fields on their owner.
// The contract is asserted by TestInstrumentationZeroAlloc; see
// DESIGN.md §10 for the metric naming scheme and the stage model.
package obs
