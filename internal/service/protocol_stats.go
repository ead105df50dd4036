package service

import (
	"fmt"
	"time"

	"bpsf/internal/obs"
)

// Stats frame codecs (DESIGN.md §10). The request is a bare type byte;
// the reply carries a ServerSnapshot. Histograms travel in a canonical
// sparse encoding — only nonzero buckets, indices strictly increasing,
// counts nonzero, bucket sum equal to N — which the parser enforces, so
// encode∘parse is the identity on valid frames (the fuzz round-trip
// test leans on this). Derived fields (histogram Avg, pool AvgBatch) are
// recomputed on parse rather than shipped.

func appendStatsRequest(b []byte) []byte {
	return append(b, msgStats)
}

func parseStatsRequest(payload []byte) error {
	r := &reader{b: payload}
	if t := r.u8(); t != msgStats {
		return fmt.Errorf("service: expected Stats, got message type %d", t)
	}
	if r.rest() != 0 {
		return fmt.Errorf("service: stats request carries %d trailing bytes", r.rest())
	}
	return nil
}

// ---- histogram ----

func appendHistSnapshot(b []byte, h obs.HistSnapshot) []byte {
	b = appendU64(b, uint64(h.N))
	b = appendI64(b, int64(h.Min))
	b = appendI64(b, int64(h.Max))
	b = appendI64(b, int64(h.Sum))
	b = appendI64(b, int64(h.P50))
	b = appendI64(b, int64(h.P95))
	b = appendI64(b, int64(h.P99))
	b = appendI64(b, int64(h.P999))
	nonzero := 0
	for _, c := range h.Buckets {
		if c != 0 {
			nonzero++
		}
	}
	b = append(b, byte(nonzero))
	for i, c := range h.Buckets {
		if c != 0 {
			b = append(b, byte(i))
			b = appendU64(b, c)
		}
	}
	return b
}

func parseHistSnapshot(r *reader) (obs.HistSnapshot, error) {
	var h obs.HistSnapshot
	n := r.u64()
	h.Min = time.Duration(r.i64())
	h.Max = time.Duration(r.i64())
	h.Sum = time.Duration(r.i64())
	h.P50 = time.Duration(r.i64())
	h.P95 = time.Duration(r.i64())
	h.P99 = time.Duration(r.i64())
	h.P999 = time.Duration(r.i64())
	nonzero := int(r.u8())
	if r.err != nil {
		return h, r.err
	}
	if n > uint64(int(^uint(0)>>1)) {
		return h, fmt.Errorf("service: histogram count %d overflows", n)
	}
	h.N = int(n)
	if nonzero > obs.NumBuckets {
		return h, fmt.Errorf("service: histogram with %d nonzero buckets (max %d)", nonzero, obs.NumBuckets)
	}
	var sum uint64
	last := -1
	for i := 0; i < nonzero; i++ {
		idx := int(r.u8())
		c := r.u64()
		if r.err != nil {
			return h, r.err
		}
		if idx <= last || idx >= obs.NumBuckets {
			return h, fmt.Errorf("service: histogram bucket index %d after %d (must be strictly increasing below %d)",
				idx, last, obs.NumBuckets)
		}
		if c == 0 {
			return h, fmt.Errorf("service: zero count in sparse histogram bucket %d", idx)
		}
		last = idx
		h.Buckets[idx] = c
		sum += c
	}
	if sum != n {
		return h, fmt.Errorf("service: histogram buckets sum to %d, header says %d", sum, n)
	}
	if h.N > 0 {
		h.Avg = h.Sum / time.Duration(h.N)
	}
	return h, nil
}

// ---- stage sets ----

func appendStageSnapshot(b []byte, s obs.StageSnapshot) []byte {
	b = append(b, byte(obs.NumStages))
	for st := 0; st < int(obs.NumStages); st++ {
		b = appendHistSnapshot(b, s.Stages[st])
	}
	return appendHistSnapshot(b, s.Total)
}

func parseStageSnapshot(r *reader) (obs.StageSnapshot, error) {
	var s obs.StageSnapshot
	if n := int(r.u8()); r.err == nil && n != int(obs.NumStages) {
		return s, fmt.Errorf("service: stats frame carries %d stages, this build knows %d", n, int(obs.NumStages))
	}
	var err error
	for st := 0; st < int(obs.NumStages); st++ {
		if s.Stages[st], err = parseHistSnapshot(r); err != nil {
			return s, err
		}
	}
	s.Total, err = parseHistSnapshot(r)
	return s, err
}

// ---- server snapshot ----

func appendStatsReply(b []byte, snap ServerSnapshot) []byte {
	b = append(b, msgStatsReply)
	b = appendI64(b, int64(snap.Uptime))

	rt := snap.Runtime
	b = appendU32(b, uint32(rt.Goroutines))
	b = appendU32(b, uint32(rt.GoMaxProcs))
	b = appendU32(b, uint32(rt.NumCPU))
	b = appendU64(b, rt.HeapAlloc)
	b = appendU64(b, rt.HeapSys)
	b = appendU64(b, rt.TotalAlloc)
	b = appendU64(b, rt.Mallocs)
	b = appendU32(b, rt.NumGC)
	b = appendI64(b, int64(rt.GCPauseTotal))
	b = appendI64(b, int64(rt.LastGCPause))

	b = appendU64(b, snap.SessionsTotal)
	b = appendI64(b, snap.SessionsActive)

	b = appendU16(b, uint16(len(snap.Pools)))
	for _, ps := range snap.Pools {
		b = appendU16(b, uint16(len(ps.Pool)))
		b = append(b, ps.Pool...)
		b = appendU16(b, uint16(ps.Size))
		b = appendU64(b, ps.Admitted)
		b = appendU64(b, ps.Decoded)
		b = appendU64(b, ps.ShedQueue)
		b = appendU64(b, ps.ShedDeadline)
		b = appendU64(b, ps.Batches)
		b = appendU64(b, ps.Coalesced)
		b = appendI64(b, int64(ps.Busy))
		b = appendHistSnapshot(b, ps.Latency)
	}

	b = appendU64(b, snap.Streams.Opened)
	b = appendU64(b, snap.Streams.Windows)

	b = appendStageSnapshot(b, snap.Stages)
	b = appendStageSnapshot(b, snap.StreamStages)

	b = appendU16(b, uint16(len(snap.Traces)))
	for _, tr := range snap.Traces {
		b = appendI64(b, tr.End)
		b = appendI64(b, int64(tr.Total))
		b = append(b, byte(obs.NumStages))
		for st := 0; st < int(obs.NumStages); st++ {
			b = appendI64(b, int64(tr.Stages[st]))
		}
	}

	b = appendU16(b, uint16(len(snap.Backends)))
	for _, bs := range snap.Backends {
		b = appendU16(b, uint16(len(bs.Name)))
		b = append(b, bs.Name...)
		b = appendU16(b, uint16(len(bs.Addr)))
		b = append(b, bs.Addr...)
		var flags byte
		if bs.Healthy {
			flags |= 1
		}
		if bs.Draining {
			flags |= 2
		}
		b = append(b, flags)
		b = appendI64(b, bs.Sessions)
		b = appendU64(b, bs.SessionsTotal)
		b = appendU64(b, bs.Requests)
		b = appendU64(b, bs.Failovers)
		b = appendU64(b, bs.Replayed)
	}
	return b
}

func parseStatsReply(payload []byte) (ServerSnapshot, error) {
	var snap ServerSnapshot
	r := &reader{b: payload}
	if t := r.u8(); t != msgStatsReply {
		if t == msgError {
			return snap, fmt.Errorf("service: %s", parseErrorBody(payload))
		}
		return snap, fmt.Errorf("service: expected StatsReply, got message type %d", t)
	}
	snap.Uptime = time.Duration(r.i64())

	snap.Runtime.Goroutines = int(r.u32())
	snap.Runtime.GoMaxProcs = int(r.u32())
	snap.Runtime.NumCPU = int(r.u32())
	snap.Runtime.HeapAlloc = r.u64()
	snap.Runtime.HeapSys = r.u64()
	snap.Runtime.TotalAlloc = r.u64()
	snap.Runtime.Mallocs = r.u64()
	snap.Runtime.NumGC = r.u32()
	snap.Runtime.GCPauseTotal = time.Duration(r.i64())
	snap.Runtime.LastGCPause = time.Duration(r.i64())

	snap.SessionsTotal = r.u64()
	snap.SessionsActive = r.i64()

	numPools := int(r.u16())
	if r.err != nil {
		return snap, r.err
	}
	for i := 0; i < numPools; i++ {
		var ps PoolStats
		nameLen := int(r.u16())
		ps.Pool = string(r.bytes(nameLen))
		ps.Size = int(r.u16())
		ps.Admitted = r.u64()
		ps.Decoded = r.u64()
		ps.ShedQueue = r.u64()
		ps.ShedDeadline = r.u64()
		ps.Batches = r.u64()
		ps.Coalesced = r.u64()
		ps.Busy = time.Duration(r.i64())
		if r.err != nil {
			return snap, r.err
		}
		var err error
		if ps.Latency, err = parseHistSnapshot(r); err != nil {
			return snap, err
		}
		if ps.Batches > 0 {
			ps.AvgBatch = float64(ps.Coalesced) / float64(ps.Batches)
		}
		snap.Pools = append(snap.Pools, ps)
	}

	snap.Streams.Opened = r.u64()
	snap.Streams.Windows = r.u64()
	var err error
	if snap.Stages, err = parseStageSnapshot(r); err != nil {
		return snap, err
	}
	if snap.StreamStages, err = parseStageSnapshot(r); err != nil {
		return snap, err
	}

	numTraces := int(r.u16())
	if r.err != nil {
		return snap, r.err
	}
	for i := 0; i < numTraces; i++ {
		var tr obs.Trace
		tr.End = r.i64()
		tr.Total = time.Duration(r.i64())
		if n := int(r.u8()); r.err == nil && n != int(obs.NumStages) {
			return snap, fmt.Errorf("service: trace carries %d stages, this build knows %d", n, int(obs.NumStages))
		}
		for st := 0; st < int(obs.NumStages); st++ {
			tr.Stages[st] = time.Duration(r.i64())
		}
		if r.err != nil {
			return snap, r.err
		}
		snap.Traces = append(snap.Traces, tr)
	}

	numBackends := int(r.u16())
	if r.err != nil {
		return snap, r.err
	}
	for i := 0; i < numBackends; i++ {
		var bs BackendStats
		bs.Name = string(r.bytes(int(r.u16())))
		bs.Addr = string(r.bytes(int(r.u16())))
		flags := r.u8()
		if r.err == nil && flags&^byte(3) != 0 {
			// reject unknown flag bits so the encoding stays canonical
			// (encode∘parse identity, like the sparse histograms)
			return snap, fmt.Errorf("service: backend stats with unknown flags %#x", flags)
		}
		bs.Healthy = flags&1 != 0
		bs.Draining = flags&2 != 0
		bs.Sessions = r.i64()
		bs.SessionsTotal = r.u64()
		bs.Requests = r.u64()
		bs.Failovers = r.u64()
		bs.Replayed = r.u64()
		if r.err != nil {
			return snap, r.err
		}
		snap.Backends = append(snap.Backends, bs)
	}
	if r.rest() != 0 {
		return snap, fmt.Errorf("service: stats reply carries %d trailing bytes", r.rest())
	}
	return snap, r.err
}
