package engine

import (
	"hash/maphash"
	"sync"
)

// numStripes is the lock-stripe count of the plan cache: enough shards
// that concurrent fetchers on distinct fingerprints or failure sets
// practically never share a lock, cheap enough that every engine can
// afford the maps. A power of two, so a hash masks to a stripe.
const numStripes = 64

// call is one in-flight solve that concurrent requesters coalesce onto.
type call struct {
	done chan struct{}
	plan *Plan
	err  error
}

// stripe is one lock shard of the plan cache: a slice of the keyspace
// plus the in-flight solves for that slice. Request coalescing is
// per-stripe, so a solve on one fingerprint never blocks a hit on
// another.
type stripe struct {
	mu       sync.RWMutex
	plans    map[string]*Plan
	inflight map[string]*call
}

// stripeFor shards the plan keyspace by key hash.
func (e *Engine) stripeFor(key string) *stripe {
	return &e.stripes[maphash.String(e.seed, key)&(numStripes-1)]
}

// cached returns the plan cached under key, probing its stripe under the
// shared lock.
func (e *Engine) cached(key string) (*Plan, bool) {
	st := e.stripeFor(key)
	e.lockShared(&st.mu)
	p, ok := st.plans[key]
	st.mu.RUnlock()
	return p, ok
}

// lockShared acquires a stripe for reading. A failed speculative acquire
// counts one contention event before blocking.
func (e *Engine) lockShared(mu *sync.RWMutex) {
	if !mu.TryRLock() {
		e.stripeContended.Add(1)
		mu.RLock()
	}
}

// lockExcl acquires a stripe for writing, counting contention.
func (e *Engine) lockExcl(mu *sync.RWMutex) {
	if !mu.TryLock() {
		e.stripeContended.Add(1)
		mu.Lock()
	}
}
