package obs

import (
	"runtime"
	"time"
)

// RuntimeSnapshot is one read of the Go runtime's health counters — the
// process-level section of /metrics and of the snapshot's JSON document
// (/statusz and msgStats).
type RuntimeSnapshot struct {
	Goroutines int
	GoMaxProcs int
	NumCPU     int

	// Heap bytes (runtime.MemStats).
	HeapAlloc  uint64
	HeapSys    uint64
	TotalAlloc uint64
	Mallocs    uint64

	// GC activity.
	NumGC        uint32
	GCPauseTotal time.Duration
	LastGCPause  time.Duration
}

// ReadRuntime snapshots the runtime. It calls runtime.ReadMemStats (a
// brief stop-the-world), so it belongs on scrape/snapshot paths, never
// per-request.
func ReadRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := RuntimeSnapshot{
		Goroutines:   runtime.NumGoroutine(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		HeapAlloc:    ms.HeapAlloc,
		HeapSys:      ms.HeapSys,
		TotalAlloc:   ms.TotalAlloc,
		Mallocs:      ms.Mallocs,
		NumGC:        ms.NumGC,
		GCPauseTotal: time.Duration(ms.PauseTotalNs),
	}
	if ms.NumGC > 0 {
		s.LastGCPause = time.Duration(ms.PauseNs[(ms.NumGC+255)%256])
	}
	return s
}

// WritePrometheus renders the runtime section in the conventional
// go_* / process_* metric names.
func (s RuntimeSnapshot) WritePrometheus(p *PromWriter, uptime time.Duration) {
	p.GaugeFloat("process_uptime_seconds", uptime.Seconds())
	p.Gauge("go_goroutines", int64(s.Goroutines))
	p.Gauge("go_gomaxprocs", int64(s.GoMaxProcs))
	p.Gauge("go_heap_alloc_bytes", int64(s.HeapAlloc))
	p.Gauge("go_heap_sys_bytes", int64(s.HeapSys))
	p.Counter("go_alloc_bytes_total", s.TotalAlloc)
	p.Counter("go_mallocs_total", s.Mallocs)
	p.Counter("go_gc_cycles_total", uint64(s.NumGC))
	p.GaugeFloat("go_gc_pause_seconds_total", s.GCPauseTotal.Seconds())
	p.GaugeFloat("go_gc_last_pause_seconds", s.LastGCPause.Seconds())
}
