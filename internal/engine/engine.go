package engine

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"recycle/internal/config"
	"recycle/internal/obs"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// Options tunes an Engine. The zero value selects full ReCycle techniques,
// the planner's default unroll window, one worker per CPU and a fresh
// 3-replica plan store.
type Options struct {
	// Techniques overrides the ReCycle technique toggles (nil selects
	// AllTechniques).
	Techniques *Techniques
	// UnrollIterations overrides the planner's steady-state unroll window
	// (0 keeps the planner default; the live runtime plans 1 iteration).
	UnrollIterations int
	// Workers bounds the Warm worker pool (0 selects GOMAXPROCS).
	Workers int
	// Store injects a (possibly shared) replicated plan store. Nil
	// creates a private 3-replica store, matching a small etcd deployment.
	Store *planstore.Store
	// CostModel seeds the heterogeneous cost model (per-(stage, op,
	// worker) durations). Nil plans with the homogeneous profiled stats.
	// It is the one setting that changes after New: MarkStraggler and
	// Recalibrate retune it.
	CostModel *profile.CostModel
	// RecalibrateThreshold is the relative drift between measured and
	// modeled per-worker compute times below which Recalibrate leaves the
	// cost model untouched (0 selects DefaultRecalibrateThreshold).
	RecalibrateThreshold float64
}

// Metrics is a snapshot of the engine's plan-traffic counters.
type Metrics struct {
	CacheHits   uint64 // served from the in-process cache
	StoreHits   uint64 // decoded out of the replicated store
	BestHits    uint64 // served via the Best(n) normalized-plan fallback
	Solves      uint64 // full solver runs
	Coalesced   uint64 // callers that waited on another caller's solve
	StoreErrors uint64 // store reads/writes that lost quorum or misparsed
	Compiles    uint64 // schedule→Program lowerings performed
	ProgramHits uint64 // Programs served from the compiled cache

	// ScratchSolves equals Solves: every solve runs from scratch. It stays
	// for the benchmark harness that reads it.
	ScratchSolves uint64
	// ClassDedups counts concrete plan requests answered by renaming a
	// cost-equivalence-class representative instead of solving.
	ClassDedups uint64

	// Service counters (PR 7). StripeContended counts lock acquisitions
	// that could not be satisfied speculatively and had to block — the
	// direct measure of cache-lock contention under load. ProgramStoreHits
	// counts compiled Programs decoded out of the replicated store instead
	// of recompiled. WarmedPlans/WarmTargets track background warming
	// coverage.
	StripeContended  uint64
	ProgramStoreHits uint64
	WarmedPlans      uint64
	WarmTargets      uint64
}

// newConf resolves Options against the planner defaults into the
// engine's configuration snapshot: an immutable Planner (its methods never
// mutate their receiver, so one snapshot is shared by all concurrent
// requests) carrying the fingerprint that namespaces its keys. New starts
// from it and NewClient derives its namespace from it, so an engine and a
// client built from the same options address the same keys.
func newConf(job config.Job, stats profile.Stats, opts Options) *Planner {
	pl := NewPlanner(job, stats)
	if opts.Techniques != nil {
		pl.Techniques = *opts.Techniques
	}
	if opts.UnrollIterations > 0 {
		pl.UnrollIterations = opts.UnrollIterations
	}
	return pl.withCosts(opts.CostModel)
}

// Engine is the plan service for one training job. It is safe for
// concurrent use.
type Engine struct {
	store   *planstore.Store
	workers int

	// conf is the current configuration snapshot. Fetch paths load it
	// once per request; only MarkStraggler and Recalibrate swap it, each
	// as a read-modify-write under confMu so concurrent retunes compose.
	confMu sync.Mutex
	conf   atomic.Pointer[Planner]

	// seed/stripes are the lock-striped plan cache: plans and in-flight
	// solves sharded by key hash.
	seed    maphash.Seed
	stripes [numStripes]stripe

	// normMu guards norm, the per-fingerprint Best(n) indexes — the
	// adaptive-schedule store of Fig 8, one normalized plan per failure
	// count.
	normMu sync.Mutex
	norm   map[string]map[int]*Plan

	// plannedMu guards plannedN, the normalized counts served so far: the
	// working set Recalibrate re-solves.
	plannedMu sync.Mutex
	plannedN  map[int]bool

	cacheHits, storeHits, bestHits    atomic.Uint64
	solves, coalesced, storeErrs      atomic.Uint64
	compiles, programHits             atomic.Uint64
	classDedups                       atomic.Uint64
	stripeContended, programStoreHits atomic.Uint64
	warmedPlans, warmTargets          atomic.Uint64

	// recalThreshold is the Recalibrate no-op band (Options.RecalibrateThreshold).
	recalThreshold float64

	// rec holds the installed tracing recorder (a recBox; empty means
	// tracing off). See SetRecorder / observe in observe.go.
	rec atomic.Value
}

// New builds the plan service for a job.
func New(job config.Job, stats profile.Stats, opts Options) *Engine {
	store := opts.Store
	if store == nil {
		store = planstore.New(3)
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	threshold := opts.RecalibrateThreshold
	if threshold <= 0 {
		threshold = DefaultRecalibrateThreshold
	}
	e := &Engine{
		store:          store,
		workers:        workers,
		seed:           maphash.MakeSeed(),
		norm:           make(map[string]map[int]*Plan),
		plannedN:       make(map[int]bool),
		recalThreshold: threshold,
	}
	e.conf.Store(newConf(job, stats, opts))
	for i := range e.stripes {
		e.stripes[i].plans = make(map[string]*Plan)
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

// config returns the current configuration snapshot.
func (e *Engine) config() *Planner { return e.conf.Load() }

// Job returns the job this engine plans for.
func (e *Engine) Job() config.Job { return e.config().Job }

// Stats returns the profiled statistics this engine plans with.
func (e *Engine) Stats() profile.Stats { return e.config().Stats }

// Shape returns the schedule shape this engine plans at: the job geometry
// plus the unroll window.
func (e *Engine) Shape() schedule.Shape { return e.config().Shape() }

// CostModel returns the current heterogeneous cost model (nil when the
// engine plans with the homogeneous profiled stats).
func (e *Engine) CostModel() *profile.CostModel { return e.config().Costs }

// MarkStraggler records that a worker runs its ops at the given multiple
// of the profiled durations (a gray failure, the paper's slow-but-alive
// discussion) — the re-plan trigger the Detector's straggler callback
// invokes. The cost model is updated copy-on-write and the plan
// fingerprint changes with it, so the very next ScheduleFor/ProgramFor
// re-solves: the solver times the slow worker honestly AND routes
// micro-batches away from it (demotion, not removal — the worker keeps
// participating in all-reduce and optimizer steps). factor 1 clears the
// mark.
func (e *Engine) MarkStraggler(w schedule.Worker, factor float64) {
	e.confMu.Lock()
	defer e.confMu.Unlock()
	c := e.config()
	cm := c.Costs
	if cm == nil {
		if factor == 1 {
			return // clearing a mark that was never set
		}
		cm = profile.UniformCost(c.Stats)
	}
	e.installCostsLocked(c, cm.WithWorkerScale(w, factor))
}

// installCostsLocked swaps in a snapshot of c with the cost model next.
// The caller holds confMu and read c under it. A model that carries no
// information beyond the profiled stats normalizes back to nil, so
// clearing the last straggler returns to the original plan namespace (and
// its cached plans) instead of a signature-distinct uniform copy.
func (e *Engine) installCostsLocked(c *Planner, next *profile.CostModel) {
	if len(next.WorkerScale) == 0 && len(next.StageScale) == 0 && next.Base == c.Stats.Durations() {
		next = nil
	}
	e.conf.Store(c.withCosts(next))
}

// ClearStraggler removes a worker's straggler mark (recovered gray
// failure); plans revert to the namespace without the mark, typically a
// cache hit.
func (e *Engine) ClearStraggler(w schedule.Worker) { e.MarkStraggler(w, 1) }

// Store returns the replicated plan store backing this engine.
func (e *Engine) Store() *planstore.Store { return e.store }

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

		StripeContended:  e.stripeContended.Load(),
		ProgramStoreHits: e.programStoreHits.Load(),
		WarmedPlans:      e.warmedPlans.Load(),
		WarmTargets:      e.warmTargets.Load(),
	}
}

// IterationSeconds converts a plan's steady-state period into wall-clock
// seconds.
func (e *Engine) IterationSeconds(p *Plan) float64 {
	return e.config().IterationSeconds(p)
}

// ThroughputSamplesPerSec returns the plan's steady-state training
// throughput.
func (e *Engine) ThroughputSamplesPerSec(p *Plan) float64 {
	return e.config().ThroughputSamplesPerSec(p)
}

// MigrationsNeeded returns how many point-to-point parameter copies morph
// a concrete failure set into the plan's normalized layout.
func (e *Engine) MigrationsNeeded(concrete []schedule.Worker, p *Plan) int {
	return migrationsNeeded(concrete, p.Assignment)
}

// Plan returns the normalized plan for n simultaneous failures:
// in-process cache, then replicated store, then one coalesced solve.
func (e *Engine) Plan(n int) (*Plan, error) { return e.plan(e.config(), n) }

// plan is Plan under the configuration snapshot c.
func (e *Engine) plan(c *Planner, n int) (*Plan, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: negative failure count %d", n)
	}
	p, err := e.getOrSolve(nkey(c.fp, n), c.fp, true, func() (*Plan, error) { return c.PlanFor(n) })
	if err == nil {
		e.plannedMu.Lock()
		e.plannedN[n] = true
		e.plannedMu.Unlock()
	}
	return p, err
}

// PlanConcrete returns the plan for one specific failed-worker set,
// bypassing failure normalization. Victim sets that are pipeline
// permutations of each other within cost-equivalence classes share one
// solve: the set is canonicalized first, the canonical representative is
// fetched or solved (same get-or-solve lifecycle as Plan), and its plan is
// renamed back onto the requested pipelines — an exact isomorph, since
// interchangeable pipelines run every op at identical cost. A set naming a
// worker outside the job, or one worker twice, is rejected first, in the
// caller's names.
func (e *Engine) PlanConcrete(failed []schedule.Worker) (*Plan, error) {
	return e.planConcrete(e.config(), failed)
}

// planConcrete is PlanConcrete under the configuration snapshot c.
func (e *Engine) planConcrete(c *Planner, failed []schedule.Worker) (*Plan, error) {
	ws := append([]schedule.Worker(nil), failed...)
	schedule.SortWorkers(ws)
	sh := c.Shape()
	if err := checkFailed(sh, ws); err != nil {
		return nil, err
	}
	key := ckey(c.fp, ws)

	var costs schedule.CostFunc
	if c.Costs != nil {
		costs = c.Costs.Fn()
	}
	canon, perm, changed := schedule.CanonicalizeVictims(sh, costs, ws)
	if !changed {
		return e.getOrSolve(key, c.fp, false, func() (*Plan, error) { return c.PlanConcrete(ws) })
	}
	if p, ok := e.peek(key, c.fp, false); ok {
		return p, nil
	}
	e.classDedups.Add(1)
	cp, err := e.getOrSolve(ckey(c.fp, canon), c.fp, false, func() (*Plan, error) { return c.PlanConcrete(canon) })
	if err != nil {
		return nil, err
	}
	p := renamePlan(cp, schedule.InvertPerm(perm))
	e.admit(key, c.fp, p, false)
	return p, nil
}

// Best returns the plan for n failures, falling back to the smallest plan
// covering more than n failures among those this engine has seen (a plan
// for more failures always routes around at least the workers that are
// down). The exact count is first sought in the cache and the replicated
// store.
func (e *Engine) Best(n int) (*Plan, bool) {
	c := e.config()
	if p, ok := e.peek(nkey(c.fp, n), c.fp, true); ok {
		return p, true
	}
	return e.normBest(c.fp, n)
}

// best is Best without the traffic counters, used by ScheduleFor so each
// Coordinator fetch lands in exactly one metrics tier.
func (e *Engine) best(fp string, n int) (*Plan, bool) {
	key := nkey(fp, n)
	if p, ok := e.cached(key); ok {
		return p, true
	}
	if p := e.loadQuiet(key); p != nil {
		e.admit(key, fp, p, true)
		return p, true
	}
	return e.normBest(fp, n)
}

// ScheduleFor is the Coordinator's failure-handling path (§4.1, Fig 8):
// given the concrete failed-worker set, fetch the exact concrete plan from
// cache/store; fall back to the stored normalized Best(n) plan when its
// failed set coincides with the concrete one (zero migrations needed);
// otherwise solve on demand and persist the result.
func (e *Engine) ScheduleFor(failed map[schedule.Worker]bool) (*schedule.Schedule, error) {
	p, err := e.planFor(e.config(), failed)
	if err != nil {
		return nil, err
	}
	return p.Schedule, nil
}

// planFor is ScheduleFor's fetch path under the configuration snapshot c,
// returning the plan so ProgramFor reaches its Program slot.
func (e *Engine) planFor(c *Planner, failed map[schedule.Worker]bool) (*Plan, error) {
	ws := workerList(failed)
	if len(ws) == 0 {
		return e.plan(c, 0)
	}
	if p, ok := e.peek(ckey(c.fp, ws), c.fp, false); ok {
		return p, nil
	}
	if p, ok := e.best(c.fp, len(ws)); ok {
		norm := append([]schedule.Worker(nil), p.Failed...)
		schedule.SortWorkers(norm)
		if sameWorkers(norm, ws) {
			e.bestHits.Add(1)
			return p, nil
		}
	}
	return e.planConcrete(c, ws)
}

// peek returns the plan under key from the cache or the replicated store
// without ever solving. Store hits are promoted into the cache (and the
// Best(n) index when normalized).
func (e *Engine) peek(key, fp string, normalized bool) (*Plan, bool) {
	if p, ok := e.cached(key); ok {
		e.cacheHits.Add(1)
		return p, true
	}
	if p := e.load(key); p != nil {
		e.admit(key, fp, p, normalized)
		return p, true
	}
	return nil, false
}

// getOrSolve is the coalescing get-or-solve core: one solve per key no
// matter how many callers arrive concurrently. Coalescing is per-stripe —
// a solve on one fingerprint never blocks a hit on another — and the cache
// is probed under the shared lock before the exclusive inflight path is
// touched at all.
func (e *Engine) getOrSolve(key, fp string, normalized bool, solve func() (*Plan, error)) (*Plan, error) {
	if p, ok := e.cached(key); ok {
		e.cacheHits.Add(1)
		return p, nil
	}
	st := e.stripeFor(key)
	e.lockExcl(&st.mu)
	if p, ok := st.plans[key]; ok {
		st.mu.Unlock()
		e.cacheHits.Add(1)
		return p, nil
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

	p := e.load(key)
	var err error
	if p == nil {
		e.solves.Add(1)
		e.observe(obs.EvPlanSolve, key)
		p, err = solve()
		if err == nil {
			e.persist(key, p)
		}
	}
	if err == nil {
		e.admit(key, fp, p, normalized)
	}
	e.lockExcl(&st.mu)
	delete(st.inflight, key)
	st.mu.Unlock()
	c.plan, c.err = p, err
	close(c.done)
	return p, err
}

// load fetches and decodes a plan from the replicated store, counting the
// hit.
func (e *Engine) load(key string) *Plan {
	p := e.loadQuiet(key)
	if p != nil {
		e.storeHits.Add(1)
	}
	return p
}

// loadQuiet is load without the StoreHits counter. A lost read quorum or
// a corrupt value degrades to a miss (the engine can always re-solve) and
// is counted in StoreErrors.
func (e *Engine) loadQuiet(key string) *Plan {
	data, ok, err := e.store.Get(key)
	if err != nil {
		e.storeErrs.Add(1)
		return nil
	}
	if !ok {
		return nil
	}
	p, err := DecodePlan(data)
	if err != nil {
		e.storeErrs.Add(1)
		return nil
	}
	return p
}

// persist encodes the plan and replicates it. A failed encode or a lost
// write quorum does not fail the request — the caller still gets its plan —
// but is counted.
func (e *Engine) persist(key string, p *Plan) {
	data, err := EncodePlan(p)
	if err == nil {
		err = e.store.Put(key, data)
	}
	if err != nil {
		e.storeErrs.Add(1)
	}
}

// admit installs a plan into the in-process cache and, for normalized
// plans, the fingerprint's Best(n) index.
func (e *Engine) admit(key, fp string, p *Plan, normalized bool) {
	st := e.stripeFor(key)
	e.lockExcl(&st.mu)
	st.plans[key] = p
	st.mu.Unlock()
	if normalized {
		e.normMu.Lock()
		idx := e.norm[fp]
		if idx == nil {
			idx = make(map[int]*Plan)
			e.norm[fp] = idx
		}
		idx[p.Failures] = p
		e.normMu.Unlock()
	}
}

// normBest returns the plan for n failures from fp's Best(n) index, or
// the smallest indexed plan covering more than n failures if the exact
// count is missing (a plan for more failures always routes around at
// least the workers that are down).
func (e *Engine) normBest(fp string, n int) (*Plan, bool) {
	e.normMu.Lock()
	defer e.normMu.Unlock()
	var best *Plan
	for k, p := range e.norm[fp] {
		if k >= n && (best == nil || k < best.Failures) {
			best = p
		}
	}
	return best, best != nil
}
