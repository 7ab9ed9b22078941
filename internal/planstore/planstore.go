// Package planstore is the distributed, fault-tolerant store for adaptive
// schedules (the paper stores plans in etcd, §4.2). This reproduction
// implements a quorum-replicated in-memory key-value store: writes succeed
// once a majority of replicas acknowledge, reads return the
// highest-version value seen by a majority, and replicas can fail and
// rejoin without losing committed plans.
package planstore

import (
	"fmt"
	"slices"
	"sync"
)

// versioned is a value with a monotonically increasing version.
type versioned struct {
	Version int64
	Data    []byte
}

// replica is one store node.
type replica struct {
	mu   sync.Mutex
	up   bool
	data map[string]versioned
}

// Store is a quorum-replicated KV store.
type Store struct {
	mu       sync.Mutex
	replicas []*replica
	version  int64
}

// New creates a store with n replicas (n should be odd; 3 matches a small
// etcd deployment).
func New(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{}
	for i := 0; i < n; i++ {
		s.replicas = append(s.replicas, &replica{up: true, data: make(map[string]versioned)})
	}
	return s
}

// quorum returns the majority size.
func (s *Store) quorum() int { return len(s.replicas)/2 + 1 }

// Put replicates the value; it fails if a majority of replicas is down.
func (s *Store) Put(key string, data []byte) error {
	s.mu.Lock()
	s.version++
	v := versioned{Version: s.version, Data: append([]byte(nil), data...)}
	s.mu.Unlock()
	acks := 0
	for _, r := range s.replicas {
		r.mu.Lock()
		if r.up {
			r.data[key] = v
			acks++
		}
		r.mu.Unlock()
	}
	if acks < s.quorum() {
		return fmt.Errorf("planstore: write quorum not reached (%d/%d)", acks, s.quorum())
	}
	return nil
}

// Get returns the highest-versioned value visible on a majority.
func (s *Store) Get(key string) ([]byte, bool, error) {
	best := versioned{Version: -1}
	seen := 0
	for _, r := range s.replicas {
		r.mu.Lock()
		if r.up {
			seen++
			if v, ok := r.data[key]; ok && v.Version > best.Version {
				best = v
			}
		}
		r.mu.Unlock()
	}
	if seen < s.quorum() {
		return nil, false, fmt.Errorf("planstore: read quorum not reached (%d/%d)", seen, s.quorum())
	}
	if best.Version < 0 {
		return nil, false, nil
	}
	return append([]byte(nil), best.Data...), true, nil
}

// Keys returns every key a live replica holds, sorted: what the store
// retains.
func (s *Store) Keys() []string {
	var keys []string
	for _, r := range s.replicas {
		r.mu.Lock()
		if r.up {
			for k := range r.data {
				keys = append(keys, k)
			}
		}
		r.mu.Unlock()
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// Clear drops every key from every replica (up or down) — a full store
// wipe. The engine uses it to model plan-state loss: cached plans are gone,
// but whatever in-memory hints the planner holds survive, so re-derivation
// after a wipe is warm rather than scratch. The version counter is not
// reset, so values written after a clear still supersede any stale reads.
func (s *Store) Clear() {
	for _, r := range s.replicas {
		r.mu.Lock()
		r.data = make(map[string]versioned)
		r.mu.Unlock()
	}
}

// FailReplica takes replica i offline.
func (s *Store) FailReplica(i int) {
	r := s.replicas[i]
	r.mu.Lock()
	r.up = false
	r.mu.Unlock()
}

// RecoverReplica brings replica i back and re-syncs it from a live peer
// (read-repair of the full keyspace).
func (s *Store) RecoverReplica(i int) {
	r := s.replicas[i]
	merged := make(map[string]versioned)
	for j, peer := range s.replicas {
		if j == i {
			continue
		}
		peer.mu.Lock()
		if peer.up {
			for k, v := range peer.data {
				if cur, ok := merged[k]; !ok || v.Version > cur.Version {
					merged[k] = v
				}
			}
		}
		peer.mu.Unlock()
	}
	r.mu.Lock()
	r.data = merged
	r.up = true
	r.mu.Unlock()
}
