package engine

import (
	"recycle/internal/core"
	"recycle/internal/obs"
	"recycle/internal/schedule"
)

// Program returns the compiled Program for the normalized plan covering n
// simultaneous failures: the plan comes through the usual get-or-solve
// path, and the lowering is compiled at most once per cached schedule.
func (e *Engine) Program(n int) (*schedule.Program, error) {
	p, err := e.Plan(n)
	if err != nil {
		return nil, err
	}
	return e.compiled(p.Schedule)
}

// ProgramConcrete returns the compiled Program for one specific
// failed-worker set.
func (e *Engine) ProgramConcrete(failed []schedule.Worker) (*schedule.Program, error) {
	p, err := e.PlanConcrete(failed)
	if err != nil {
		return nil, err
	}
	return e.compiled(p.Schedule)
}

// ProgramFor is the Coordinator's executable-artifact fetch path: the
// schedule for the concrete failure set (cache → store → Best(n) → solve,
// exactly ScheduleFor) lowered into the Program both executors interpret.
func (e *Engine) ProgramFor(failed map[schedule.Worker]bool) (*schedule.Program, error) {
	e.observe(obs.EvPlanFetch, "", obs.Attr{Key: "failed", Val: int64(len(failed))})
	s, err := e.ScheduleFor(failed)
	if err != nil {
		return nil, err
	}
	return e.compiled(s)
}

// PublishSplicedProgram replicates a mid-iteration spliced Program under
// its event identifier, so fetch-only executor clients sharing the store
// can pull the exact artifact the coordinator spliced and is interpreting.
// Spliced programs bypass the get-or-solve caches on purpose: they are
// one-shot resumption artifacts, not reusable plans. A publish that fails
// — the encode, or a store without quorum — is counted in StoreErrors and
// its EvPublish event carries the error, so a coordinator that carries on
// with its in-memory artifact still leaves the failure on record.
func (e *Engine) PublishSplicedProgram(event string, p *schedule.Program) error {
	data, err := EncodeProgram(p)
	if err == nil {
		err = e.store.Put(spliceKey(e.config().fp, event), data)
	}
	detail := event
	if err != nil {
		e.storeErrs.Add(1)
		detail += ": " + err.Error()
	}
	e.observe(obs.EvPublish, detail)
	return err
}

// SplicedProgram fetches and decodes a previously published spliced
// Program by its event identifier.
func (e *Engine) SplicedProgram(event string) (*schedule.Program, error) {
	return fetchSpliced(e.store, e.config().fp, event)
}

// CompiledProgram lowers (or fetches the cached lowering of) a plan this
// engine served — the hook consumers with a *Plan in hand use to reach the
// executable artifact.
func (e *Engine) CompiledProgram(p *core.Plan) (*schedule.Program, error) {
	return e.compiled(p.Schedule)
}

// compiled resolves a schedule's Program: per-stripe memo (identity
// keying — plans are cached and shared, so one plan's schedule is one
// pointer), then the replicated store (another engine sharing the store
// may have compiled and replicated the artifact already), then a local
// Compile that is encoded and replicated for everyone else. Concurrent
// first requests may compile twice; both results are structurally
// identical and the stripe keeps one.
func (e *Engine) compiled(s *schedule.Schedule) (*schedule.Program, error) {
	ps := e.progStripeFor(s)
	ep := e.epoch.Load()
	e.lockShared(&ps.mu)
	ent, ok := ps.programs[s]
	ps.mu.RUnlock()
	if ok && ent.epoch == e.epoch.Load() {
		e.programHits.Add(1)
		return ent.prog, nil
	}

	// The store key uses the current configuration's namespace, but the
	// schedule in hand may have been solved under an older one (a cost
	// model retired between the fetch and this lowering), so a decoded
	// artifact is only accepted when it demonstrably lowers THIS schedule.
	key := programKey(e.config().fp, workerList(s.Failed))
	data, found, err := e.store.Get(key)
	if err != nil {
		e.storeErrs.Add(1)
	} else if found {
		if prog, err := DecodeProgram(data); err == nil && programMatches(prog, s) {
			e.programStoreHits.Add(1)
			return e.admitProgram(s, prog, ep), nil
		}
	}

	prog, err := schedule.Compile(s)
	if err != nil {
		return nil, err
	}
	e.compiles.Add(1)
	prog = e.admitProgram(s, prog, ep)
	if data, err := EncodeProgram(prog); err != nil {
		e.storeErrs.Add(1)
	} else if err := e.store.Put(key, data); err != nil {
		e.storeErrs.Add(1)
	}
	return prog, nil
}

// admitProgram installs a Program into its schedule's stripe under the
// request's epoch, keeping an existing entry from the same or a newer
// epoch (first compile wins on a race).
func (e *Engine) admitProgram(s *schedule.Schedule, prog *schedule.Program, ep uint64) *schedule.Program {
	ps := e.progStripeFor(s)
	e.lockExcl(&ps.mu)
	if ent, ok := ps.programs[s]; ok && ent.epoch >= ep {
		prog = ent.prog
	} else {
		ps.programs[s] = progEntry{prog: prog, epoch: ep}
	}
	ps.mu.Unlock()
	return prog
}

// programMatches reports whether a decoded Program is exactly the lowering
// of the given schedule: same shape, durations, failed set, and one
// instruction per placement with matching op and stamped span. It guards
// the store fetch against stale artifacts left under a reused key.
func programMatches(p *schedule.Program, s *schedule.Schedule) bool {
	if p.Shape != s.Shape || p.Durations != s.Durations {
		return false
	}
	if len(p.Failed) != len(s.Failed) {
		return false
	}
	for w := range s.Failed {
		if !p.Failed[w] {
			return false
		}
	}
	if len(p.Instrs) != len(s.Placements) {
		return false
	}
	for i, pl := range s.Placements {
		if p.Instrs[i].Op != pl.Op || p.Instrs[i].Dur != pl.End-pl.Start {
			return false
		}
	}
	return true
}
