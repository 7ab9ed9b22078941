package engine

import (
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
	if prog, ok := e.renamedHit(key); ok {
		return prog, nil
	}
	return e.programConcrete(ws, key)
}

// ProgramFor is the Coordinator's executable-artifact fetch path: the
// Program both executors interpret for the concrete failure set. A
// class-dedup rename's Program is served from the cache; otherwise the
// set's plan (cache → Best(n)) is lowered, and on a miss the set is
// solved, or renamed from its orbit representative.
func (e *Engine) ProgramFor(failed map[schedule.Worker]bool) (*schedule.Program, error) {
	e.observe(obs.EvPlanFetch, "", obs.Attr{Key: "failed", Val: int64(len(failed))})
	ws := workerList(failed)
	if len(ws) == 0 {
		return e.Program(0)
	}
	key := ckey(e.conf.fp, ws)
	if prog, ok := e.renamedHit(key); ok {
		return prog, nil
	}
	if p, ok := e.cachedPlan(key, ws); ok {
		return e.CompiledProgram(p)
	}
	return e.programConcrete(ws, key)
}

// renamedHit returns the class-dedup rename's Program cached under key,
// counting a cache hit and a Program hit as a cached plan's Program would.
func (e *Engine) renamedHit(key string) (*schedule.Program, bool) {
	prog, ok := e.cachedRenamed(key)
	if ok {
		e.cacheHits.Add(1)
		e.programHits.Add(1)
	}
	return prog, ok
}

// programConcrete serves the Program of a sorted concrete failed set keyed
// key on a miss: the set is checked first, so a rejection names the
// caller's workers; a canonical set's plan is fetched or solved and
// lowered; any other set's orbit representative is, and its Program is
// renamed onto the set (renameProgram). No renamed Schedule is built.
func (e *Engine) programConcrete(ws []schedule.Worker, key string) (*schedule.Program, error) {
	if err := checkFailed(e.conf.Shape(), ws); err != nil {
		return nil, err
	}
	canon, perm, changed := e.canonicalize(ws)
	if !changed {
		p, err := e.solveConcrete(key, ws)
		if err != nil {
			return nil, err
		}
		return e.CompiledProgram(p)
	}
	rep, err := e.solveConcrete(ckey(e.conf.fp, canon), canon)
	if err != nil {
		return nil, err
	}
	return e.renameProgram(ws, key, rep, schedule.InvertPerm(perm))
}

// renameProgram serves the Program of the concrete set ws, keyed key, that
// perm renames the orbit representative rep onto: the cached rename, or
// rep's Program (compiled and replicated once per orbit) permuted by
// schedule.RenameProgram, admitted first-wins — concurrent first callers
// of a key share one *schedule.Program — and replicated under the set's
// own Program key, where a Client fetches it.
func (e *Engine) renameProgram(ws []schedule.Worker, key string, rep *Plan, perm []int) (*schedule.Program, error) {
	if prog, ok := e.cachedRenamed(key); ok {
		e.programHits.Add(1)
		return prog, nil
	}
	rp, err := e.CompiledProgram(rep)
	if err != nil {
		return nil, err
	}
	prog, installed := e.admitRenamed(key, schedule.RenameProgram(rep.Schedule, rp, perm))
	if installed {
		e.replicate(programKey(e.conf.fp, ws), prog)
	}
	return prog, nil
}

// admitRenamed installs a class-dedup rename's Program under key unless the
// key already holds one, and returns the cached Program and whether it is
// prog. The first admit of a key that holds no renamed plan either counts
// one ClassDedups.
func (e *Engine) admitRenamed(key string, prog *schedule.Program) (*schedule.Program, bool) {
	st := e.stripeFor(key)
	e.lockExcl(&st.mu)
	defer st.mu.Unlock()
	if q, ok := st.renamed[key]; ok {
		return q, false
	}
	if st.renamed == nil {
		st.renamed = make(map[string]*schedule.Program) // most engines rename nothing
	}
	st.renamed[key] = prog
	if _, ok := st.plans[key]; !ok {
		e.classDedups.Add(1)
	}
	return prog, true
}

// PublishSplicedProgram replicates a mid-iteration spliced Program under
// its event identifier, where Client.SplicedProgram fetches it. No runtime
// publishes its splices — every one derives them from the in-flight
// Program and the event — so the benchmark's control-plane probe is the
// one caller. Spliced programs bypass the get-or-solve caches: they are
// one-shot resumption artifacts, not reusable plans. A publish that fails
// — the encode, or a store without quorum — is counted in StoreErrors and
// its EvPublish event carries the error, so a coordinator that carries on
// with its in-memory artifact still leaves the failure on record.
func (e *Engine) PublishSplicedProgram(event string, p *schedule.Program) error {
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
// executable artifact. It tries the plan's own slot (plans are cached and
// shared, so the slot lives exactly as long as the cache entry), then the
// replicated store (another engine sharing the store may have compiled and
// replicated the artifact already), then a local Compile that is encoded
// and replicated for everyone else. The Program carries the engine's cost
// model as its cost table — the model the plan was solved under, since its
// fingerprint keyed it. Concurrent first requests coalesce on the plan:
// one of them fetches or compiles, encodes and puts, the others wait for
// it and share its Program. A class-dedup renamed plan (PlanConcrete) is
// served its set's renamed Program instead, the one ProgramFor serves.
func (e *Engine) CompiledProgram(p *Plan) (*schedule.Program, error) {
	if p.rep != nil {
		return e.renameProgram(p.Failed, ckey(e.conf.fp, p.Failed), p.rep, p.perm)
	}
	if prog := p.prog.Load(); prog != nil {
		e.programHits.Add(1)
		return prog, nil
	}
	p.progMu.Lock()
	defer p.progMu.Unlock()
	if prog := p.prog.Load(); prog != nil {
		e.programHits.Add(1)
		return prog, nil
	}

	// The store is shared and its bytes are untrusted (another engine, or a
	// corrupt replica, may have left them under this key), so a decoded
	// artifact is only accepted when it demonstrably lowers THIS schedule
	// under THIS cost model.
	c := e.conf
	s := p.Schedule
	var costs []int64
	if c.Costs != nil {
		costs = schedule.NewCostTable(s.Shape, c.Costs.Fn())
	}
	key := programKey(c.fp, workerList(s.Failed))
	data, found, err := e.store.Get(key)
	if err != nil {
		e.storeErrs.Add(1)
	} else if found {
		if prog, err := DecodeProgram(data); err == nil && programMatches(prog, s, costs) {
			e.storeHits.Add(1)
			p.prog.Store(prog)
			return prog, nil
		}
	}

	prog, err := schedule.Compile(s)
	if err != nil {
		return nil, err
	}
	if err := prog.SetCostTable(costs); err != nil {
		return nil, err
	}
	e.compiles.Add(1)
	p.prog.Store(prog)
	e.replicate(key, prog)
	return prog, nil
}

// replicate encodes a Program and puts it in the replicated store under
// key, counting a failure of either in StoreErrors.
func (e *Engine) replicate(key string, prog *schedule.Program) {
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
