package engine

import (
	"sync"
	"sync/atomic"

	"recycle/internal/schedule"
)

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

// lookup returns the entry cached under key (nil if none). It counts
// nothing.
func (e *Engine) lookup(key string) *entry {
	e.mu.Lock()
	en := e.entries[key]
	e.mu.Unlock()
	return en
}

// admit returns the entry under key, creating it if absent, and installs
// p (when non-nil) as its Plan unless it already holds one. The first
// admit wins, so every caller of a key shares one *Plan and one Program.
// Creating a renamed entry counts one ClassDedups, whichever artifact (a
// Plan or only a Program) the rename reaches the key with first.
func (e *Engine) admit(key string, p *Plan, renamed bool) *entry {
	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.entries[key]
	if en == nil {
		en = &entry{renamed: renamed}
		e.entries[key] = en
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
