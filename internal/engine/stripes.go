package engine

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"recycle/internal/schedule"
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

// entry is one key's slot in the plan cache: the key's Plan (nil when only
// ProgramFor's class-dedup rename reached the key) and its Program, filled
// once under mu, so concurrent first fetches share one. A renamed entry's
// artifacts are renamed from its orbit representative's, never solved or
// compiled. An entry is created once and never replaced, so a Plan's
// Program lives exactly as long as the Plan's cache slot.
type entry struct {
	plan    atomic.Pointer[Plan]
	prog    atomic.Pointer[schedule.Program]
	mu      sync.Mutex
	renamed bool
}

// stripe is one lock shard of the plan cache: the entries of a slice of
// the keyspace plus the in-flight solves for that slice. Request
// coalescing is per-stripe, so a solve on one fingerprint never blocks a
// hit on another.
type stripe struct {
	mu       sync.RWMutex
	entries  map[string]*entry
	inflight map[string]*call
}

// stripeFor shards the plan keyspace by key hash.
func (e *Engine) stripeFor(key string) *stripe {
	return &e.stripes[maphash.String(e.seed, key)&(numStripes-1)]
}

// lookup returns the entry cached under key (nil if none), probing its
// stripe under the shared lock. It counts nothing.
func (e *Engine) lookup(key string) *entry {
	st := e.stripeFor(key)
	e.lockShared(&st.mu)
	en := st.entries[key]
	st.mu.RUnlock()
	return en
}

// admit returns the entry under key, creating it if absent, and installs
// p (when non-nil) as its Plan unless it already holds one. The first
// admit wins, so every caller of a key shares one *Plan and one Program.
// Creating a renamed entry counts one ClassDedups, whichever artifact (a
// Plan or only a Program) the rename reaches the key with first.
func (e *Engine) admit(key string, p *Plan, renamed bool) *entry {
	st := e.stripeFor(key)
	e.lockExcl(&st.mu)
	defer st.mu.Unlock()
	en := st.entries[key]
	if en == nil {
		en = &entry{renamed: renamed}
		st.entries[key] = en
		if renamed {
			e.classDedups.Add(1)
		}
	}
	if p != nil && en.plan.Load() == nil {
		p.key = key
		en.plan.Store(p)
	}
	return en
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
