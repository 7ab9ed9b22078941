package core

import (
	"fmt"
	"sort"
	"sync"
)

// PlanStore is the adaptive-schedule store of Fig 8: one plan per
// simultaneous-failure count, written by the offline Planner and read by
// the online Coordinator. It is safe for concurrent use. (The distributed,
// replicated variant used by the runtime lives in internal/planstore; this
// is the in-process cache both build on.)
type PlanStore struct {
	mu    sync.RWMutex
	plans map[int]*Plan
}

// NewPlanStore returns an empty store.
func NewPlanStore() *PlanStore {
	return &PlanStore{plans: make(map[int]*Plan)}
}

// Put stores a plan, keyed by its failure count.
func (s *PlanStore) Put(p *Plan) error {
	if p == nil || p.Schedule == nil {
		return fmt.Errorf("core: refusing to store an empty plan")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plans[p.Failures] = p
	return nil
}

// Get returns the plan for exactly n failures.
func (s *PlanStore) Get(n int) (*Plan, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.plans[n]
	return p, ok
}

// Best returns the plan for n failures, or the smallest stored plan
// covering more than n failures if the exact count is missing (a plan for
// more failures always routes around at least the workers that are down).
func (s *PlanStore) Best(n int) (*Plan, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if p, ok := s.plans[n]; ok {
		return p, true
	}
	keys := make([]int, 0, len(s.plans))
	for k := range s.plans {
		if k > n {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil, false
	}
	sort.Ints(keys)
	return s.plans[keys[0]], true
}
