package sim

import (
	"fmt"
	"io"
	"strings"
	"time"

	"bpsf/internal/bpsf"
)

// ScheduleLatency is the latency, in BP-iteration units, of a BP-SF decode
// on `workers` trial lanes: initIters (the initial BP stage) plus the
// trial stage's virtual steps in closed form (bpsf.Schedule). Lane l takes
// trials l, l+P, l+2P, …; the success first in virtual time ends the
// decode, and when no trial succeeds the longest lane does. On a decode's
// full trial records it is exactly the Steps a bpsf.Decoder with that
// many lanes reports. With workers ≥ len(trialIters) it is the paper's
// fully parallel bound: init + the winning trial's own iteration count.
func ScheduleLatency(initIters int, trialIters []int, trialSuccess []bool, workers int) int {
	steps, _ := bpsf.Schedule(trialIters, trialSuccess, workers)
	return initIters + steps
}

// The GPU model estimates device decode latency the way the paper's
// "GPU_Est" does: the initial BP runs on the device, then trial syndromes
// are decoded one-by-one (the CUDA-Q decode_batch limitation), each
// paying a kernel-launch/IO overhead plus per-iteration time. The
// constants follow the paper's §VI.
const (
	// gpuLaunch is the fixed overhead per decoder invocation (the ≈0.1 ms
	// wrapper minimum the paper observed).
	gpuLaunch = 100 * time.Microsecond
	// gpuIter is one BP iteration on the device (the ≈20 ns FPGA/ASIC
	// iteration latency the paper cites).
	gpuIter = 20 * time.Nanosecond
	// gpuOSDScale maps a measured CPU OSD-stage time to the modeled
	// device time, calibrated from the paper's reported 36.44 ms CPU vs
	// 7.37 ms GPU BP-OSD averages.
	gpuOSDScale = 0.2
)

// gpuEstimate converts one BP-SF decode's iteration records into a
// modeled GPU latency. Serial trial decoding stops at the first success
// (trials after the winner are never launched).
func gpuEstimate(r Record) time.Duration {
	t := gpuLaunch + time.Duration(r.InitIterations)*gpuIter
	for k, iters := range r.TrialIterations {
		t += gpuLaunch + time.Duration(iters)*gpuIter
		if k < len(r.TrialSuccess) && r.TrialSuccess[k] {
			break
		}
	}
	return t
}

// gpuEstimateBatched models the improvement the paper proposes (a batched
// GPU call returning at the first success): one launch for the whole
// trial batch, latency bounded by the winning trial (or the slowest when
// all fail).
func gpuEstimateBatched(r Record) time.Duration {
	t := gpuLaunch + time.Duration(r.InitIterations)*gpuIter
	if len(r.TrialIterations) == 0 {
		return t
	}
	iters := ScheduleLatency(0, r.TrialIterations, r.TrialSuccess, len(r.TrialIterations))
	return t + gpuLaunch + time.Duration(iters)*gpuIter
}

// gpuEstimateBaseline models a BP-OSD decode on the device: one launch,
// the BP iterations, and the measured OSD-stage time scaled by
// gpuOSDScale.
func gpuEstimateBaseline(r Record) time.Duration {
	return gpuLaunch + time.Duration(r.InitIterations)*gpuIter +
		time.Duration(float64(r.PostTime)*gpuOSDScale)
}

// LatencyRow is one row of a latency study: a per-shot time distribution
// under a label. GPU marks the rows of the GPU model.
type LatencyRow struct {
	Label string
	GPU   bool
	Summary
}

// LatencyStudy derives the paper's latency rows (Figs. 14–16) from two
// KeepRecords runs over the same shots: the baseline (BP-OSD) and the
// measured decoder. It returns, in order, the measured baseline and
// serial-decoder times; when the decoder is a bare BP-SF, one
// schedule-model row per entry of workers, GPU_Est and batched GPU
// trials; and last the baseline's device model.
//
// The model prices each shot at its own measured time per iteration,
// r.Time / r.Iterations, times its ScheduleLatency iteration count. At
// one worker that count is r.Iterations, so the P=1 row is the serial row
// shot for shot, and no P row exceeds it on any shot. The initial BP keeps
// its serial price at every P, although a decoder with more than one lane
// may split it into parts (bp.Split), so at P > 1 the rows are looser upper
// bounds.
//
// The BP-SF rows follow from the decoder, not from its records: a BP-SF
// run in which no shot reached post-processing still has them, modeled
// from the initial BP alone. They need records that stop at the first
// success, as a serial decode writes them; a record with a trial after a
// success (a DecodeAllTrials or Workers > 1 run) is refused. Since the
// records hold no trial past the first success, and at P > 1 a later
// trial can win in virtual time, the model rows are upper bounds.
func LatencyStudy(base, dec *Result, workers []int) ([]LatencyRow, error) {
	if len(dec.Records) == 0 || len(base.Records) != len(dec.Records) {
		return nil, fmt.Errorf("sim: latency study needs KeepRecords runs over the same shots, got %d baseline and %d decoder records",
			len(base.Records), len(dec.Records))
	}
	for i, r := range dec.Records {
		for k, ok := range r.TrialSuccess {
			if ok && k < len(r.TrialIterations)-1 {
				return nil, fmt.Errorf("sim: latency study: shot %d records trial %d after a success (DecodeAllTrials or parallel trials); the schedule model needs serial records", i, k+1)
			}
		}
	}
	row := func(label string, gpuRow bool, recs []Record, t func(Record) time.Duration) LatencyRow {
		ds := make([]time.Duration, len(recs))
		for i, r := range recs {
			ds[i] = t(r)
		}
		return LatencyRow{Label: label, GPU: gpuRow, Summary: Summarize(ds)}
	}
	measured := func(r Record) time.Duration { return r.Time }
	rows := []LatencyRow{
		row(base.Decoder, false, base.Records, measured),
		row(dec.Decoder+" serial", false, dec.Records, measured),
	}
	// decoder names are Spec labels, and only a bare BP-SF's begins so
	if strings.HasPrefix(dec.Decoder, "BP-SF(") {
		for _, w := range workers {
			rows = append(rows, row(fmt.Sprintf("BP-SF P=%d (model)", w), false, dec.Records, func(r Record) time.Duration {
				if r.Iterations == 0 {
					return r.Time
				}
				iters := ScheduleLatency(r.InitIterations, r.TrialIterations, r.TrialSuccess, w)
				return r.Time * time.Duration(iters) / time.Duration(r.Iterations)
			}))
		}
		rows = append(rows,
			row("BP-SF (GPU_Est)", true, dec.Records, gpuEstimate),
			row("BP-SF (GPU, batched trials)", true, dec.Records, gpuEstimateBatched))
	}
	return append(rows, row(base.Decoder+" (GPU model)", true, base.Records, gpuEstimateBaseline)), nil
}

// WriteLatency renders latency rows as one table (min, median, avg, p99
// and max in ms) and returns them as figure series, one per row, with the
// quantile as x: min at 0, median at 0.5, p99 at 0.99, max at 1.
func WriteLatency(w io.Writer, rows []LatencyRow) ([]Series, error) {
	ms := func(t time.Duration) float64 { return float64(t.Microseconds()) / 1000 }
	tb := NewTable("decoder", "min ms", "median ms", "avg ms", "p99 ms", "max ms")
	series := make([]Series, len(rows))
	for i, r := range rows {
		tb.Row(r.Label, ms(r.Min), ms(r.P50), ms(r.Avg), ms(r.P99), ms(r.Max))
		s := Series{Label: r.Label}
		s.Add(0, ms(r.Min))
		s.Add(0.5, ms(r.P50))
		s.Add(0.99, ms(r.P99))
		s.Add(1, ms(r.Max))
		series[i] = s
	}
	return series, tb.Write(w)
}
