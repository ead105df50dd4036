package main

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// stalledServer stands in for a decode server: it answers requests in
// order after a fixed service time, except that it stops reading for
// stall when request stallAt arrives, so that send blocks — what a real
// server does to its client once the socket buffers fill.
type stalledServer struct {
	service time.Duration
	stallAt int
	stall   time.Duration
	failAt  int // this send returns an error (request never left)
	shedAt  int // this request's items all come back shed

	mu   sync.Mutex
	free time.Time // when the server can start the next request
}

func (s *stalledServer) send(items int) sendFunc {
	return func(_, k int) (waitFunc, error) {
		if k == s.failAt {
			return nil, errors.New("connection reset")
		}
		if k == s.stallAt {
			time.Sleep(s.stall)
		}
		s.mu.Lock()
		start := time.Now()
		if s.free.After(start) {
			start = s.free
		}
		done := start.Add(s.service)
		s.free = done
		s.mu.Unlock()
		return func() outcome {
			time.Sleep(time.Until(done))
			if k == s.shedAt {
				return outcome{Done: time.Now(), Shed: items}
			}
			return outcome{Done: time.Now(), Decoded: items}
		}, nil
	}
}

func TestOpenLoopChargesStallsToDueTime(t *testing.T) {
	const (
		n        = 40
		interval = 2 * time.Millisecond
		stall    = 30 * time.Millisecond
		items    = 4
	)
	srv := &stalledServer{service: 100 * time.Microsecond, stallAt: 10, stall: stall, failAt: 30, shedAt: 35}
	out := openLoop(time.Now(), n, 1, interval, func(int, int) int { return items }, srv.send(items))
	reqs := out[0]
	s := summarize(out)

	if s.Items != n*items || s.Decoded+s.Shed+s.Failed != s.Items || s.Unaccounted != 0 {
		t.Fatalf("accounting: sent %d, decoded %d + shed %d + failed %d, unaccounted %d",
			s.Items, s.Decoded, s.Shed, s.Failed, s.Unaccounted)
	}
	if s.Failed != items || s.Shed != items {
		t.Fatalf("failed %d shed %d, want %d each", s.Failed, s.Shed, items)
	}
	// The requests that fell due during the stall were sent late, and
	// their latency from due time carries the wait even though their
	// round trip from the actual send is short.
	next := reqs[11]
	if late := next.Sent.Sub(next.Due); late < stall-2*interval {
		t.Errorf("request after the stall sent %v late, want ≥ %v", late, stall-2*interval)
	}
	if lat := next.latency(); lat < stall-2*interval {
		t.Errorf("request after the stall: latency from due %v, want ≥ %v", lat, stall-2*interval)
	}
	if rtt := next.Done.Sub(next.Sent); rtt > stall/2 {
		t.Errorf("request after the stall: round trip %v should not include the stall", rtt)
	}
	// the stall is visible in the tail from due time
	if p99 := percentile(s.Lat, 0.99); p99.Value < stall-2*interval {
		t.Errorf("p99 from due time %v hides the stall", p99.Value)
	}
	if late := percentile(s.Late, 0.99); late.Value < stall-2*interval {
		t.Errorf("generator lateness p99 %v hides the stall", late.Value)
	}
	// shed and failed requests miss every limit
	if reqs[30].latency() != missed || reqs[35].latency() != missed {
		t.Error("a failed or shed request has a finite latency")
	}
	// the generator caught up: requests well after the stall are on time
	if late := reqs[n-1].Sent.Sub(reqs[n-1].Due); late > stall/2 {
		t.Errorf("generator still %v late at the end", late)
	}
}

func TestSummarizeSkipsRequestsWithNothingToAnswer(t *testing.T) {
	t0 := time.Now()
	reqs := []request{
		{Due: t0, Sent: t0, Done: t0, Items: 0},
		{Due: t0, Sent: t0.Add(time.Millisecond), Done: t0.Add(3 * time.Millisecond), Items: 1, Decoded: 1},
	}
	s := summarize([][]request{reqs})
	if len(s.Lat) != 1 || s.Lat[0] != 3*time.Millisecond || len(s.Late) != 2 || len(s.RTT) != 1 || s.RTT[0] != 2*time.Millisecond {
		t.Fatalf("summary %+v", s)
	}
}
