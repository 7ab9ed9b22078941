package engine

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync/atomic"

	"recycle/internal/config"
	"recycle/internal/obs"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// Options tunes an Engine. The zero value selects full ReCycle techniques,
// the planner's default unroll window, one worker per CPU and no plan
// store.
type Options struct {
	// Techniques overrides the ReCycle technique toggles (nil selects
	// AllTechniques).
	Techniques *Techniques
	// UnrollIterations overrides the planner's steady-state unroll window
	// (0 keeps the planner default; the live runtime plans 1 iteration).
	UnrollIterations int
	// Workers bounds the worker pool that Warm and Prefetch run on (0
	// selects GOMAXPROCS).
	Workers int
	// Store injects a shared replicated plan store: the engine fetches
	// Programs other engines replicated and replicates its own. Nil means
	// in-process only: no Program is encoded or stored.
	Store *planstore.Store
	// CostModel is the heterogeneous cost model (per-(stage, op, worker)
	// durations). Nil plans with the homogeneous profiled stats. Like every
	// other option it is fixed at New: to plan under another model, build
	// another engine (it may share the Store).
	CostModel *profile.CostModel
}

// Metrics is a snapshot of the engine's plan-traffic counters.
type Metrics struct {
	CacheHits   uint64 // served from the in-process cache
	StoreHits   uint64 // Programs decoded out of the replicated store
	BestHits    uint64 // served via the Best(n) normalized-plan fallback
	Solves      uint64 // full solver runs
	Coalesced   uint64 // callers that waited on another caller's solve
	StoreErrors uint64 // store reads/writes that lost quorum or misparsed
	Compiles    uint64 // schedule→Program lowerings performed
	ProgramHits uint64 // Programs served from the compiled cache

	// ScratchSolves equals Solves: every solve runs from scratch. It stays
	// for the benchmark harness that reads it.
	ScratchSolves uint64
	// ClassDedups counts concrete failure sets served by renaming their
	// cost-equivalence-class representative instead of solving: its
	// Program (ProgramFor, ProgramConcrete), or its Plan (PlanConcrete).
	// One per key, whichever artifacts are renamed for it and however many
	// first requests for it arrive concurrently.
	ClassDedups uint64

	// Service counters. StripeContended counts lock acquisitions that
	// could not be satisfied speculatively and had to block — the direct
	// measure of cache-lock contention under load. WarmedPlans/WarmTargets
	// track background warming coverage.
	StripeContended uint64
	WarmedPlans     uint64
	WarmTargets     uint64
}

// newConf resolves Options against the planner defaults into the
// engine's configuration: an immutable Planner (its methods never mutate
// their receiver, so one Planner is shared by all concurrent requests)
// carrying the fingerprint that namespaces its keys. New starts from it
// and NewClient derives its namespace from it, so an engine and a client
// built from the same options address the same keys.
func newConf(job config.Job, stats profile.Stats, opts Options) *Planner {
	pl := NewPlanner(job, stats)
	if opts.Techniques != nil {
		pl.Techniques = *opts.Techniques
	}
	if opts.UnrollIterations > 0 {
		pl.UnrollIterations = opts.UnrollIterations
	}
	pl.Costs = opts.CostModel
	pl.fp = Fingerprint(pl.Job, pl.Stats, pl.Techniques, pl.UnrollIterations, pl.Costs.Signature())
	return pl
}

// Engine is the plan service for one training job. It is safe for
// concurrent use.
type Engine struct {
	store   *planstore.Store // nil: in-process only
	workers int

	// conf is the configuration, fixed at New.
	conf *Planner
	// healthy is the key of the fault-free plan, nkey(fp, 0): built once,
	// so the fetch every fault-free iteration makes builds no string.
	healthy string

	// seed/stripes are the lock-striped plan cache: one entry per key and
	// the in-flight solves, sharded by key hash. The entries under nkey
	// are the Best(n) index, the adaptive-schedule store of Fig 8.
	seed    maphash.Seed
	stripes [numStripes]stripe

	cacheHits, storeHits, bestHits atomic.Uint64
	solves, coalesced, storeErrs   atomic.Uint64
	compiles, programHits          atomic.Uint64
	classDedups, stripeContended   atomic.Uint64
	warmedPlans, warmTargets       atomic.Uint64

	// rec holds the installed tracing recorder (a recBox; empty means
	// tracing off). See SetRecorder / observe in observe.go.
	rec atomic.Value
}

// New builds the plan service for a job.
func New(job config.Job, stats profile.Stats, opts Options) *Engine {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		store:   opts.Store,
		workers: workers,
		conf:    newConf(job, stats, opts),
		seed:    maphash.MakeSeed(),
	}
	e.healthy = nkey(e.conf.fp, 0)
	for i := range e.stripes {
		e.stripes[i].entries = make(map[string]*entry)
		e.stripes[i].inflight = make(map[string]*call)
	}
	return e
}

// ShapeJob builds a synthetic unit-cost job whose only meaningful content
// is the pipeline geometry (DP pipelines × PP stages × mb micro-batches
// per pipeline). The live runtime, the figure gallery and the sim-fidelity
// experiment plan at this level, where op durations are supplied directly
// rather than derived from a transformer cost model.
func ShapeJob(dp, pp, mb int) (config.Job, profile.Stats) {
	job := config.Job{
		Model:    config.Model{Name: fmt.Sprintf("synthetic %dx%dx%d", dp, pp, mb), Layers: pp, Hidden: 1, Heads: 1, SeqLen: 1, VocabSize: 1, BytesParam: 2},
		Parallel: config.Parallelism{DP: dp, PP: pp, TP: 1},
		Batch:    config.Batch{GlobalBatch: dp * mb, MicroBatch: 1},
		Hardware: config.A100x1,
	}
	return job, profile.Unit()
}

// Job returns the job this engine plans for.
func (e *Engine) Job() config.Job { return e.conf.Job }

// Stats returns the profiled statistics this engine plans with.
func (e *Engine) Stats() profile.Stats { return e.conf.Stats }

// Shape returns the schedule shape this engine plans at: the job geometry
// plus the unroll window.
func (e *Engine) Shape() schedule.Shape { return e.conf.Shape() }

// CostModel returns the heterogeneous cost model (nil when the engine
// plans with the homogeneous profiled stats).
func (e *Engine) CostModel() *profile.CostModel { return e.conf.Costs }

// Metrics returns a snapshot of the plan-traffic counters.
func (e *Engine) Metrics() Metrics {
	return Metrics{
		CacheHits:   e.cacheHits.Load(),
		StoreHits:   e.storeHits.Load(),
		BestHits:    e.bestHits.Load(),
		Solves:      e.solves.Load(),
		Coalesced:   e.coalesced.Load(),
		StoreErrors: e.storeErrs.Load(),
		Compiles:    e.compiles.Load(),
		ProgramHits: e.programHits.Load(),

		ScratchSolves: e.solves.Load(),
		ClassDedups:   e.classDedups.Load(),

		StripeContended: e.stripeContended.Load(),
		WarmedPlans:     e.warmedPlans.Load(),
		WarmTargets:     e.warmTargets.Load(),
	}
}

// IterationSeconds converts a plan's steady-state period into wall-clock
// seconds.
func (e *Engine) IterationSeconds(p *Plan) float64 {
	return e.conf.IterationSeconds(p)
}

// ThroughputSamplesPerSec returns the plan's steady-state training
// throughput.
func (e *Engine) ThroughputSamplesPerSec(p *Plan) float64 {
	return e.conf.ThroughputSamplesPerSec(p)
}

// MigrationsNeeded returns how many point-to-point parameter copies morph
// a concrete failure set into the plan's normalized layout.
func (e *Engine) MigrationsNeeded(concrete []schedule.Worker, p *Plan) int {
	return migrationsNeeded(concrete, p.Assignment)
}

// Plan returns the normalized plan for n simultaneous failures: the
// in-process cache, then one coalesced solve.
func (e *Engine) Plan(n int) (*Plan, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: negative failure count %d", n)
	}
	c, key := e.conf, e.healthy
	if n > 0 {
		key = nkey(c.fp, n)
	}
	return e.getOrSolve(key, func() (*Plan, error) { return c.PlanFor(n) })
}

// PlanConcrete returns the plan for one specific failed-worker set,
// bypassing failure normalization. Victim sets that are pipeline
// permutations of each other within cost-equivalence classes share one
// solve: the set is canonicalized first, the canonical representative is
// fetched or solved (same get-or-solve lifecycle as Plan), and its plan is
// renamed back onto the requested pipelines — an exact isomorph, since
// interchangeable pipelines run every op at identical cost. A set naming a
// worker outside the job, or one worker twice, is rejected first, in the
// caller's names. The renamed plan is cached in the set's entry for
// callers that read its Schedule; its Program is the one ProgramFor serves
// for the set.
func (e *Engine) PlanConcrete(failed []schedule.Worker) (*Plan, error) {
	ws, key := e.concrete(failed)
	if err := checkFailed(e.conf.Shape(), ws); err != nil {
		return nil, err
	}
	canon, perm, changed := e.canonicalize(ws)
	if !changed {
		return e.solveConcrete(key, ws)
	}
	if p, ok := e.peek(key); ok {
		return p, nil
	}
	cp, err := e.solveConcrete(ckey(e.conf.fp, canon), canon)
	if err != nil {
		return nil, err
	}
	return e.admit(key, renamePlan(cp, schedule.InvertPerm(perm)), true).plan.Load(), nil
}

// concrete returns a sorted copy of a concrete failed-worker set and its
// cache key.
func (e *Engine) concrete(failed []schedule.Worker) ([]schedule.Worker, string) {
	ws := append([]schedule.Worker(nil), failed...)
	schedule.SortWorkers(ws)
	return ws, ckey(e.conf.fp, ws)
}

// canonicalize maps a checked, sorted failed set onto its victim orbit's
// representative under the engine's cost model
// (schedule.CanonicalizeVictims).
func (e *Engine) canonicalize(ws []schedule.Worker) (canon []schedule.Worker, perm []int, changed bool) {
	c := e.conf
	var costs schedule.CostFunc
	if c.Costs != nil {
		costs = c.Costs.Fn()
	}
	return schedule.CanonicalizeVictims(c.Shape(), costs, ws)
}

// solveConcrete is the get-or-solve of the concrete plan for a checked,
// sorted failed set, cached under key.
func (e *Engine) solveConcrete(key string, ws []schedule.Worker) (*Plan, error) {
	c := e.conf
	return e.getOrSolve(key, func() (*Plan, error) { return c.PlanConcrete(ws) })
}

// cached returns the entry the Coordinator's failure-handling path (§4.1,
// Fig 8) serves a sorted, nonempty failed set from without solving: the
// set's own entry under key (a cached plan, or a class-dedup rename's
// Program), counting a cache hit, or the normalized Best(n) entry (the
// entry under nkey) when its failed set coincides with the concrete one
// (zero migrations needed), counting a Best hit. Only that plan can be
// served for n failed workers: a plan for more failures has more workers
// down. Each fetch lands in exactly one metrics tier.
func (e *Engine) cached(key string, ws []schedule.Worker) (*entry, bool) {
	if en := e.lookup(key); en != nil {
		e.cacheHits.Add(1)
		return en, true
	}
	if en := e.lookup(nkey(e.conf.fp, len(ws))); en != nil {
		norm := append([]schedule.Worker(nil), en.plan.Load().Failed...)
		schedule.SortWorkers(norm)
		if sameWorkers(norm, ws) {
			e.bestHits.Add(1)
			return en, true
		}
	}
	return nil, false
}

// peek returns the plan cached under key, counting the hit, without ever
// solving.
func (e *Engine) peek(key string) (*Plan, bool) {
	var p *Plan
	if en := e.lookup(key); en != nil {
		p = en.plan.Load()
	}
	if p == nil {
		return nil, false
	}
	e.cacheHits.Add(1)
	return p, true
}

// getOrSolve is the coalescing get-or-solve core: one solve per key no
// matter how many callers arrive concurrently. Coalescing is per-stripe —
// a solve on one fingerprint never blocks a hit on another — and the cache
// is probed under the shared lock before the exclusive inflight path is
// touched at all.
func (e *Engine) getOrSolve(key string, solve func() (*Plan, error)) (*Plan, error) {
	if p, ok := e.peek(key); ok {
		return p, nil
	}
	st := e.stripeFor(key)
	e.lockExcl(&st.mu)
	if en, ok := st.entries[key]; ok {
		st.mu.Unlock()
		e.cacheHits.Add(1)
		return en.plan.Load(), nil
	}
	if c, ok := st.inflight[key]; ok {
		st.mu.Unlock()
		e.coalesced.Add(1)
		<-c.done
		return c.plan, c.err
	}
	c := &call{done: make(chan struct{})}
	st.inflight[key] = c
	st.mu.Unlock()

	e.solves.Add(1)
	e.observe(obs.EvPlanSolve, key)
	p, err := solve()
	if err == nil {
		p = e.admit(key, p, false).plan.Load()
	}
	e.lockExcl(&st.mu)
	delete(st.inflight, key)
	st.mu.Unlock()
	c.plan, c.err = p, err
	close(c.done)
	return p, err
}
