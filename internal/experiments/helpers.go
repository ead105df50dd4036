package experiments

import (
	"sync"
	"sync/atomic"

	"bpsf/internal/sim"
)

// splitWorkers divides a worker budget between concurrent grid cells and
// the sharded Monte-Carlo engine inside each cell, keeping the total
// goroutine count near the budget: cells get min(total, cells) workers and
// each cell's engine gets the remaining share.
func splitWorkers(total, cells int) (cellWorkers, simWorkers int) {
	cellWorkers = total
	if cellWorkers > cells {
		cellWorkers = cells
	}
	if cellWorkers < 1 {
		cellWorkers = 1
	}
	simWorkers = total / cellWorkers
	if simWorkers < 1 {
		simWorkers = 1
	}
	return cellWorkers, simWorkers
}

// parallelFor runs fn(0..n-1) on up to workers goroutines and returns the
// lowest-index error (deterministic error selection regardless of
// scheduling).
func parallelFor(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func newConstructionTable() *sim.Table {
	return sim.NewTable("code", "n", "k", "d", "checks/side", "max check weight")
}

// newParamSeries encodes a construction's (n, k) as a one-point series so
// construction tables export through the same CSV path as figures.
func newParamSeries(label string, n, k int) sim.Series {
	s := sim.Series{Label: label}
	s.Add(float64(n), float64(k))
	return s
}
