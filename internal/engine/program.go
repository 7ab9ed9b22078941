package engine

import (
	"fmt"
	"slices"

	"recycle/internal/obs"
	"recycle/internal/schedule"
)

// Program returns the compiled Program for the normalized plan covering n
// simultaneous failures: the plan comes through the usual get-or-solve
// path, and the lowering is compiled at most once per cached plan.
func (e *Engine) Program(n int) (*schedule.Program, error) {
	p, err := e.Plan(n)
	if err != nil {
		return nil, err
	}
	return e.CompiledProgram(p)
}

// ProgramConcrete returns the compiled Program for one specific
// failed-worker set, bypassing failure normalization: the Program
// ProgramFor serves the set when no Best(n) plan matches it.
func (e *Engine) ProgramConcrete(failed []schedule.Worker) (*schedule.Program, error) {
	ws, key := e.concrete(failed)
	if en := e.lookup(key); en != nil {
		e.cacheHits.Add(1)
		return e.programOf(en, ws)
	}
	return e.programConcrete(ws, key)
}

// ProgramFor is the Coordinator's executable-artifact fetch path: the
// Program both executors interpret for the concrete failure set. The set's
// entry (cache → Best(n)) serves its Program, lowering its plan on first
// use; on a miss the set is solved, or renamed from its orbit
// representative.
func (e *Engine) ProgramFor(failed map[schedule.Worker]bool) (*schedule.Program, error) {
	e.observeCount(obs.EvPlanFetch, "failed", int64(len(failed)))
	ws := workerList(failed)
	if len(ws) == 0 {
		return e.Program(0)
	}
	key := ckey(e.conf.fp, ws)
	if en, ok := e.cached(key, ws); ok {
		return e.programOf(en, ws)
	}
	return e.programConcrete(ws, key)
}

// programConcrete serves the Program of a sorted concrete failed set keyed
// key on a miss: the set is checked first, so a rejection names the
// caller's workers; a canonical set's plan is fetched or solved and
// lowered; any other set's orbit representative is, and the set's renamed
// entry is admitted (counting its class dedup) and served the
// representative's Program renamed onto the set. No renamed Schedule is
// built.
func (e *Engine) programConcrete(ws []schedule.Worker, key string) (*schedule.Program, error) {
	if err := checkFailed(e.conf.Shape(), ws); err != nil {
		return nil, err
	}
	canon, _, changed := e.canonicalize(ws)
	if !changed {
		p, err := e.solveConcrete(key, ws)
		if err != nil {
			return nil, err
		}
		return e.CompiledProgram(p)
	}
	if _, err := e.solveConcrete(ckey(e.conf.fp, canon), canon); err != nil {
		return nil, err
	}
	return e.programOf(e.admit(key, nil, true), ws)
}

// PublishSplicedProgram replicates a mid-iteration spliced Program under
// its event identifier, where Client.SplicedProgram fetches it. No runtime
// publishes its splices — every one derives them from the in-flight
// Program and the event — so the benchmark's control-plane probe is the
// one caller. Spliced programs bypass the get-or-solve caches: they are
// one-shot resumption artifacts, not reusable plans. A publish that fails
// — the encode, or a store without quorum — is counted in StoreErrors and
// its EvPublish event carries the error, so a coordinator that carries on
// with its in-memory artifact still leaves the failure on record. An
// engine without a store has nowhere to publish: it returns an error.
func (e *Engine) PublishSplicedProgram(event string, p *schedule.Program) error {
	if e.store == nil {
		return fmt.Errorf("engine: no plan store to publish the spliced program for event %q", event)
	}
	data, err := EncodeProgram(p)
	if err == nil {
		err = e.store.Put(spliceKey(e.conf.fp, event), data)
	}
	detail := event
	if err != nil {
		e.storeErrs.Add(1)
		detail += ": " + err.Error()
	}
	e.observe(obs.EvPublish, detail)
	return err
}

// CompiledProgram lowers (or fetches the cached lowering of) a plan this
// engine served — the hook consumers with a *Plan in hand use to reach the
// executable artifact: the Program of the plan's cache entry, the one
// ProgramFor serves for its key. A plan this engine did not serve is an
// error.
func (e *Engine) CompiledProgram(p *Plan) (*schedule.Program, error) {
	en := e.lookup(p.key)
	if en == nil || en.plan.Load() != p {
		return nil, fmt.Errorf("engine: the plan for %v was not served by this engine", p.Failed)
	}
	return e.programOf(en, p.Failed)
}

// programOf serves an entry's Program, filling it on first use under the
// entry's mutex, so concurrent first requests coalesce: one of them
// fetches, compiles or renames, the others wait for it and share its
// Program. ws is the entry's sorted failed set, which only a renamed entry
// reads.
func (e *Engine) programOf(en *entry, ws []schedule.Worker) (*schedule.Program, error) {
	if prog := en.prog.Load(); prog != nil {
		e.programHits.Add(1)
		return prog, nil
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	if prog := en.prog.Load(); prog != nil {
		e.programHits.Add(1)
		return prog, nil
	}
	var prog *schedule.Program
	var err error
	if en.renamed {
		prog, err = e.rename(ws)
	} else {
		prog, err = e.compile(en.plan.Load().Schedule)
	}
	if err != nil {
		return nil, err
	}
	en.prog.Store(prog)
	return prog, nil
}

// rename builds the Program of a class-dedup renamed set ws: its orbit
// representative's Program (compiled and replicated once per orbit)
// permuted by schedule.RenameProgram, and replicated (given a store) under
// the set's own Program key, where a Client fetches it. The representative
// is found by re-canonicalizing ws, an uncounted read: it was solved before
// any rename of its orbit was admitted.
func (e *Engine) rename(ws []schedule.Worker) (*schedule.Program, error) {
	canon, perm, _ := e.canonicalize(ws)
	rep := e.lookup(ckey(e.conf.fp, canon))
	rp, err := e.programOf(rep, canon)
	if err != nil {
		return nil, err
	}
	prog := schedule.RenameProgram(rep.plan.Load().Schedule, rp, schedule.InvertPerm(perm))
	e.replicate(programKey(e.conf.fp, ws), prog)
	return prog, nil
}

// compile fetches the lowering of a cached plan's schedule from the
// replicated store (another engine sharing the store may have compiled and
// replicated the artifact already), or compiles it locally, encoded and
// replicated for everyone else; an engine without a store only compiles.
// The Program carries the engine's cost table, the one the plan was
// solved under; every Program the engine compiles shares it.
func (e *Engine) compile(s *schedule.Schedule) (*schedule.Program, error) {
	// The store is shared and its bytes are untrusted (another engine, or a
	// corrupt replica, may have left them under this key), so a decoded
	// artifact is only accepted when it demonstrably lowers THIS schedule
	// under THIS cost model.
	c := e.conf
	key := programKey(c.fp, workerList(s.Failed))
	if e.store != nil {
		data, found, err := e.store.Get(key)
		if err != nil {
			e.storeErrs.Add(1)
		} else if found {
			if prog, err := DecodeProgram(data); err == nil && programMatches(prog, s, c.costs) {
				e.storeHits.Add(1)
				return prog, nil
			}
		}
	}

	prog, err := schedule.Compile(s)
	if err != nil {
		return nil, err
	}
	if err := prog.SetCostTable(c.costs); err != nil {
		return nil, err
	}
	e.compiles.Add(1)
	e.replicate(key, prog)
	return prog, nil
}

// replicate encodes a Program and puts it in the replicated store under
// key, counting a failure of either in StoreErrors. Without a store, a no-op.
func (e *Engine) replicate(key string, prog *schedule.Program) {
	if e.store == nil {
		return
	}
	if data, err := EncodeProgram(prog); err != nil {
		e.storeErrs.Add(1)
	} else if err := e.store.Put(key, data); err != nil {
		e.storeErrs.Add(1)
	}
}

// programMatches reports whether a decoded Program is exactly the lowering
// of the given schedule under the cost table costs: same shape, durations,
// cost table, failed set, and one instruction per placement with matching
// op and stamped span. It guards the store fetch against stale artifacts
// left under a reused key.
func programMatches(p *schedule.Program, s *schedule.Schedule, costs []int64) bool {
	if p.Shape != s.Shape || p.Durations != s.Durations || !slices.Equal(p.CostTable(), costs) {
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
		if p.Op(i) != pl.Op || p.Instrs[i].Dur != pl.End-pl.Start {
			return false
		}
	}
	return true
}
