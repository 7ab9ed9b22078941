package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"recycle/internal/obs"
	"recycle/internal/schedule"
)

// Warmer is one pass of the engine's worker pool: GOMAXPROCS goroutines
// (as read at New) that claim the pass's items in order through one atomic
// cursor and fetch each into the caches while the serving path keeps
// serving. Fetches that miss on a key the pool is currently solving
// coalesce onto its in-flight solve through the cache's inflight table, so
// the pool needs no coordination with the serving path beyond the cache
// itself.
type Warmer struct {
	next    atomic.Int64 // claim cursor: the index of the next item
	stopped atomic.Bool
	wg      sync.WaitGroup
	once    sync.Once
	err     error // the first fetch error, set once
}

// pool starts a pass over items 0..total-1 on min(workers, total)
// goroutines, each claiming the next unclaimed index and running fetch on
// it until the items run out or the pass stops. The first error stops the
// pass.
func (e *Engine) pool(total int, fetch func(i int) error) *Warmer {
	w := &Warmer{}
	for range min(e.workers, total) {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for !w.stopped.Load() {
				i := int(w.next.Add(1) - 1)
				if i >= total {
					return
				}
				if err := fetch(i); err != nil {
					w.once.Do(func() { w.err = err })
					w.stopped.Store(true)
				}
			}
		}()
	}
	return w
}

// wait blocks until the pass has finished and returns its first error (nil
// when every item was fetched).
func (w *Warmer) wait() error {
	w.wg.Wait()
	return w.err
}

// Warm precomputes the normalized plans for 0..maxFailures simultaneous
// failures on the engine's worker pool and returns once every one is
// cached, or with the first solve error — the offline phase of Fig 8.
// Counts are claimed fewest-failures-first, and fetches served meanwhile
// coalesce onto the pool's solves. maxFailures <= 0 selects the job's
// fault-tolerance threshold (default DP-1).
func (e *Engine) Warm(maxFailures int) error {
	if maxFailures <= 0 {
		maxFailures = e.Job().MaxPlannedFailures()
	}
	return e.pool(maxFailures+1, func(n int) error {
		if _, err := e.Plan(n); err != nil {
			return fmt.Errorf("engine: warming %d failures: %w", n, err)
		}
		e.observeCount(obs.EvWarm, "failures", int64(n))
		return nil
	}).wait()
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
