package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"recycle/internal/obs"
	"recycle/internal/schedule"
)

// Warmer tracks one background pass of the engine's worker pool: up to
// Options.Workers goroutines that claim the pass's items in order through
// one atomic cursor and fetch each into the caches while the serving path
// keeps serving. Fetches that miss on a key the pool is currently solving
// coalesce onto its in-flight solve via the stripe's inflight table — the
// pool needs no coordination with the serving path beyond the cache
// itself.
type Warmer struct {
	total   int
	next    atomic.Int64 // claim cursor: the index of the next item
	stopped atomic.Bool
	done    atomic.Int64
	wg      sync.WaitGroup

	mu       sync.Mutex
	firstErr error
}

// pool starts a pass over items 0..total-1 on min(Options.Workers, total)
// goroutines, each claiming the next unclaimed index and running fetch on
// it until the items run out or Stop is called. After the first error the
// remaining claims are skipped (first error wins), so Coverage still
// reaches total.
func (e *Engine) pool(total int, fetch func(i int) error) *Warmer {
	w := &Warmer{total: total}
	for range min(e.workers, total) {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for !w.stopped.Load() {
				i := int(w.next.Add(1) - 1)
				if i >= total {
					return
				}
				if w.Err() == nil {
					if err := fetch(i); err != nil {
						w.fail(err)
					}
				}
				w.done.Add(1)
			}
		}()
	}
	return w
}

// Warm starts precomputing normalized plans for 0..maxFailures
// simultaneous failures in the background and returns immediately — the
// offline phase of Fig 8. Counts are claimed fewest-failures-first: small
// failure sets are the likeliest fetches, so coverage concentrates where
// the serving path will look first. maxFailures <= 0 selects the job's
// fault-tolerance threshold (default DP-1). Every plan lands in the cache.
//
// Callers that want the old synchronous behavior chain the calls:
// e.Warm(n).Wait().
func (e *Engine) Warm(maxFailures int) *Warmer {
	if maxFailures <= 0 {
		maxFailures = e.Job().MaxPlannedFailures()
	}
	total := maxFailures + 1
	e.warmTargets.Add(uint64(total))
	return e.pool(total, func(n int) error {
		if _, err := e.Plan(n); err != nil {
			return fmt.Errorf("engine: warming %d failures: %w", n, err)
		}
		e.warmedPlans.Add(1)
		e.observe(obs.EvWarm, "", obs.Attr{Key: "failures", Val: int64(n)})
		return nil
	})
}

// Prefetch starts fetching the Program of every failed set in the
// background, exactly as ProgramFor would, and returns immediately: the
// pool claims the sets in order, so with one worker they are fetched in
// sets order. A trace replay prefetches its windows' sets and stops the
// pass when it returns; its own fetches then hit the cache or coalesce onto
// a solve in flight. The engine serves one Program per failed set however
// the fetches interleave, so prefetching never changes what is served.
func (e *Engine) Prefetch(sets []map[schedule.Worker]bool) *Warmer {
	return e.pool(len(sets), func(i int) error {
		_, err := e.ProgramFor(sets[i])
		return err
	})
}

// Stop ends the pass early: no item is claimed after it, and it returns
// once every fetch in flight has finished, so no fetch outlives it.
func (w *Warmer) Stop() {
	w.stopped.Store(true)
	w.wg.Wait()
}

// Wait blocks until the pass has finished and returns its first error (nil
// when every item was fetched).
func (w *Warmer) Wait() error {
	w.wg.Wait()
	return w.Err()
}

// Err returns the first error observed so far without blocking.
func (w *Warmer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstErr
}

// fail records the first error.
func (w *Warmer) fail(err error) {
	w.mu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.mu.Unlock()
}

// Coverage reports the pass's progress: items completed (successfully or
// not) out of the total targeted.
func (w *Warmer) Coverage() (done, total int) {
	return int(w.done.Load()), w.total
}
