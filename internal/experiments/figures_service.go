package experiments

import (
	"fmt"
	"time"

	"bpsf/internal/service"
	"bpsf/internal/sim"
)

// ServiceLatency characterizes the real-time decode service
// (internal/service) the way Figs. 13–16 characterize the decoder: an
// in-process server on loopback, closed-loop client sessions
// (service.DriveLoad) uploading client-sampled syndromes, one measurement
// per warm-pool size. It reports throughput and the service-latency
// percentiles per pool size — the online counterpart of the
// sim.ScheduleLatency P-worker model.
//
// Timing series are hardware-dependent (not golden-pinned); the decode
// responses themselves follow the service determinism contract
// (DESIGN.md §5).
func ServiceLatency(o Opts) (FigureResult, error) {
	const codeName = "bb72"
	const rounds = 2
	const p = 3e-3
	shots := o.shots(160)
	const sessions = 4
	const batch = 8
	poolSizes := []int{1, 2}
	if o.Full {
		poolSizes = []int{1, 2, 4, 8}
	}
	spec := service.Spec{Kind: "bpsf", BPIters: 30, Phi: 12, WMax: 2, NS: 2}

	// the harness samples syndromes itself so the server is measured on
	// decoding alone; the local DEM matches the server's by construction
	d, _, err := CachedDEM(codeName, rounds)
	if err != nil {
		return FigureResult{}, err
	}

	tput := sim.Series{Label: "throughput syndromes/s"}
	p50 := sim.Series{Label: "service p50 ms"}
	p99 := sim.Series{Label: "service p99 ms"}
	tb := sim.NewTable("pool size", "decoded", "shed", "syndromes/s", "p50 ms", "p95 ms", "p99 ms", "p99.9 ms")
	ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }

	for _, ps := range poolSizes {
		srv := service.NewServer(service.Options{PoolSize: ps})
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return FigureResult{}, err
		}
		res, err := service.DriveLoad(srv.Addr().String(), service.LoadConfig{
			Code: codeName, Rounds: rounds, P: p, Spec: spec,
			Sessions: sessions, Shots: shots, BatchSize: batch,
			DEM: d, Seed: o.seed(),
		})
		srv.Drain(5 * time.Second)
		if err != nil {
			return FigureResult{}, err
		}

		st := sim.Summarize(res.ServerLat)
		rate := float64(st.N) / res.Wall.Seconds()
		tput.Add(float64(ps), rate)
		p50.Add(float64(ps), ms(st.P50))
		p99.Add(float64(ps), ms(st.P99))
		tb.Row(ps, st.N, res.Shed, rate, ms(st.P50), ms(st.P95), ms(st.P99), ms(st.P999))
	}

	fmt.Fprintf(o.out(), "== service-latency: %s decode service over loopback, %s ==\n", codeName, spec)
	err = tb.Write(o.out())
	return FigureResult{
		Name:   "service-latency",
		Series: []sim.Series{tput, p50, p99},
		Notes:  fmt.Sprintf("in-process loopback, %d sessions × batch %d; wall-clock series are host-dependent", sessions, batch),
	}, err
}
