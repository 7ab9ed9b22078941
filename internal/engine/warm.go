package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"recycle/internal/obs"
)

// Warmer tracks one background warming pass: the prioritized pool that
// populates the plan cache while ScheduleFor keeps serving. Fetches that
// miss on a count the warmer is currently solving coalesce onto its
// in-flight solve via the stripe's inflight table — the warming pipeline
// needs no coordination with the serving path beyond the cache itself.
type Warmer struct {
	eng   *Engine
	total int64
	done  atomic.Int64
	wg    sync.WaitGroup

	mu       sync.Mutex
	firstErr error
}

// Warm starts precomputing normalized plans for 0..maxFailures
// simultaneous failures in the background and returns immediately — the
// offline phase of Fig 8. Counts are
// warmed fewest-failures-first: small failure sets are the likeliest
// fetches, so coverage concentrates where the serving path will look
// first. maxFailures <= 0 selects the job's fault-tolerance threshold
// (default DP-1). Every plan lands in the cache and the replicated store.
//
// Callers that want the old synchronous behavior chain the calls:
// e.Warm(n).Wait().
func (e *Engine) Warm(maxFailures int) *Warmer {
	if maxFailures <= 0 {
		maxFailures = e.planner.Job.MaxPlannedFailures()
	}
	total := maxFailures + 1
	w := &Warmer{eng: e, total: int64(total)}
	e.warmTargets.Add(uint64(total))

	counts := make(chan int)
	workers := min(e.workers, total)
	for i := 0; i < workers; i++ {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for n := range counts {
				if w.Err() != nil {
					w.done.Add(1)
					continue // drain: first error wins, rest are skipped
				}
				if _, err := e.Plan(n); err != nil {
					w.fail(fmt.Errorf("engine: warming %d failures: %w", n, err))
				} else {
					e.warmedPlans.Add(1)
					e.observe(obs.EvWarm, "", obs.Attr{Key: "failures", Val: int64(n)})
				}
				w.done.Add(1)
			}
		}()
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for n := 0; n < total; n++ { // ascending: fewest failures first
			counts <- n
		}
		close(counts)
	}()
	return w
}

// Wait blocks until the warming pass has finished and returns its first
// error (nil when every count warmed).
func (w *Warmer) Wait() error {
	w.wg.Wait()
	return w.Err()
}

// Err returns the first warming error observed so far without blocking.
func (w *Warmer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstErr
}

// fail records the first warming error.
func (w *Warmer) fail(err error) {
	w.mu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.mu.Unlock()
}

// Coverage reports warming progress: counts completed (successfully or
// not) out of the total targeted.
func (w *Warmer) Coverage() (done, total int) {
	return int(w.done.Load()), int(w.total)
}
