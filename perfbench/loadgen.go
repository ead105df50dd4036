package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// missed is the latency recorded for a request that was shed or failed:
// it misses every latency limit, so it lands above any percentile it can
// reach.
const missed = time.Duration(math.MaxInt64)

// outcome is what one request produced once its replies were in: how
// many of its items (syndromes, window commits) were decoded, shed or
// failed, and when the last reply arrived.
type outcome struct {
	Done                  time.Time
	Decoded, Shed, Failed int
	// Server is the longest server-side service time among the
	// request's replies, where the protocol reports one.
	Server time.Duration
}

// waitFunc blocks until a sent request's replies are in.
type waitFunc func() outcome

// sendFunc issues request k of session s. It returns the function that
// waits for the replies; an error means the request never left.
type sendFunc func(s, k int) (waitFunc, error)

// request is one open-loop request as the generator saw it.
type request struct {
	Due, Sent, Done       time.Time
	Items                 int
	Decoded, Shed, Failed int
	Server                time.Duration
}

// latency is the request's latency from its due time, or missed.
func (r request) latency() time.Duration {
	if r.Shed > 0 || r.Failed > 0 {
		return missed
	}
	return r.Done.Sub(r.Due)
}

// openLoop drives sessions open-loop: the j-th request overall falls due
// at start + j·interval, whether or not earlier replies are in, and goes
// to session j mod sessions as that session's request k = j / sessions.
// Each request is timed from its due time, so a stall that holds up the
// sender is charged to every request it delays. items(s, k) is how many
// items a request carries; every one ends decoded, shed or failed.
//
// One goroutine — the caller's — sends for every session, and one per
// session waits for replies in send order.
func openLoop(start time.Time, n, sessions int, interval time.Duration, items func(s, k int) int, send sendFunc) [][]request {
	reqs := make([][]request, sessions)
	waits := make([][]waitFunc, sessions)
	sent := make([]chan int, sessions)
	var wg sync.WaitGroup
	for s := range reqs {
		per := (n - s + sessions - 1) / sessions
		reqs[s] = make([]request, per)
		waits[s] = make([]waitFunc, per)
		sent[s] = make(chan int, per) // sized so the sender never waits on a waiter
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range sent[s] {
				o := waits[s][k]()
				r := &reqs[s][k]
				r.Done, r.Decoded, r.Shed, r.Failed, r.Server = o.Done, o.Decoded, o.Shed, o.Failed, o.Server
			}
		}()
	}
	w := newWaker()
	defer w.close()
	for j := 0; j < n; j++ {
		s, k := j%sessions, j/sessions
		due := start.Add(time.Duration(j) * interval)
		w.sleepUntil(due)
		r := &reqs[s][k]
		r.Due, r.Items, r.Sent = due, items(s, k), time.Now()
		w, err := send(s, k)
		if err != nil {
			r.Done, r.Failed = time.Now(), r.Items
			continue
		}
		waits[s][k] = w
		sent[s] <- k
	}
	for _, c := range sent {
		close(c)
	}
	wg.Wait()
	return reqs
}

// loadSummary accounts a phase's open-loop requests across sessions.
type loadSummary struct {
	Requests              int
	Items                 int // sent = Decoded + Shed + Failed when Unaccounted is 0
	Decoded, Shed, Failed int
	Unaccounted           int // items neither decoded, shed nor failed
	Lat, Late, RTT        []time.Duration
	FirstDue, LastDone    time.Time
}

func summarize(out [][]request) loadSummary {
	var s loadSummary
	for _, reqs := range out {
		for _, r := range reqs {
			if s.Requests == 0 || r.Due.Before(s.FirstDue) {
				s.FirstDue = r.Due
			}
			if r.Done.After(s.LastDone) {
				s.LastDone = r.Done
			}
			s.Requests++
			s.Items += r.Items
			s.Decoded += r.Decoded
			s.Shed += r.Shed
			s.Failed += r.Failed
			s.Unaccounted += r.Items - r.Decoded - r.Shed - r.Failed
			s.Late = append(s.Late, r.Sent.Sub(r.Due))
			if r.Items == 0 {
				continue // nothing to reply to (a stream round that closes no window)
			}
			s.Lat = append(s.Lat, r.latency())
			if r.latency() != missed {
				s.RTT = append(s.RTT, r.Done.Sub(r.Sent))
			}
		}
	}
	return s
}

// inDueOrder returns the latencies from due time of every request that
// expects a reply, across sessions, in the order the requests fell due.
func inDueOrder(out [][]request) []time.Duration {
	return inDueOrderOf(out, request.latency)
}

// inDueOrderOf is inDueOrder for any per-request duration.
func inDueOrderOf(out [][]request, f func(request) time.Duration) []time.Duration {
	var all []request
	for _, reqs := range out {
		for _, r := range reqs {
			if r.Items > 0 {
				all = append(all, r)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Due.Before(all[j].Due) })
	lat := make([]time.Duration, len(all))
	for i, r := range all {
		lat[i] = f(r)
	}
	return lat
}
