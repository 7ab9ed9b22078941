package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"recycle/internal/config"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/solver"
)

// Techniques toggles the three ReCycle optimizations — the knobs of the
// Fig 11 ablation. The zero value disables everything except basic
// re-routing.
type Techniques struct {
	AdaptivePipelining bool // re-route micro-batches to data-parallel peers
	DecoupledBackProp  bool // split backward into BInput + BWeight
	StaggeredOptimizer bool // per-stage optimizer barriers
}

// AllTechniques is the full ReCycle configuration.
var AllTechniques = Techniques{AdaptivePipelining: true, DecoupledBackProp: true, StaggeredOptimizer: true}

// Plan is one precomputed adaptive schedule for a normalized failure count.
type Plan struct {
	Failures   int               // simultaneous worker failures this plan handles
	Assignment []int             // failures per stage (Algorithm 1's A)
	Failed     []schedule.Worker // the normalized failed-worker set
	Schedule   *schedule.Schedule
	// PeriodSlots is the steady-state iteration interval in duration units.
	PeriodSlots int64
	// PlanTime is how long the Planner spent generating this plan.
	PlanTime time.Duration
	// prog is the compiled Program of Schedule, filled by the first
	// ProgramFor/CompiledProgram that reaches this plan; progMu serializes
	// the fills, so concurrent first requests share one. A plan is cached
	// under one key, so the slot shares its lifetime; a Plan is therefore
	// never copied by value, which would alias or drop it.
	prog   atomic.Pointer[schedule.Program]
	progMu sync.Mutex
	// rep is the orbit representative a class-dedup rename was made from
	// (nil for a solved plan), and perm the pipeline permutation onto this
	// plan: CompiledProgram serves a renamed plan the Program renamed from
	// rep's, the one ProgramFor serves for its key.
	rep  *Plan
	perm []int
}

// Planner is ReCycle's primary contribution (§4.2): given a job and its
// profiled statistics, it precomputes an adaptive pipeline schedule for a
// failure count or set in two phases — Failure Normalization (Algorithm 1,
// normalize.go), which decides how many failures each stage carries so one
// plan serves every concrete set of that size, then Adaptive Schedule
// Generation (§4.2.2), a makespan-minimizing solve (internal/solver) with
// Adaptive Pipelining, Decoupled BackProp and the Staggered Optimizer
// under memory constraints. The engine holds one immutable Planner as its
// configuration, fixed at New; NewPlanner builds a bare one.
type Planner struct {
	Job        config.Job
	Stats      profile.Stats
	Techniques Techniques
	// Costs is the heterogeneous cost model: per-(stage, op, worker)
	// durations built from Stats plus straggler/stage multipliers. Nil
	// plans with the homogeneous Stats durations. The model is treated as
	// immutable, so copying the Planner by value is always safe.
	Costs *profile.CostModel
	// UnrollIterations controls the steady-state measurement window
	// (>= 1; 0 defaults to 3). The live runtime plans one iteration at a
	// time; throughput analyses unroll 2+ iterations so SteadyPeriod can
	// difference consecutive makespans.
	UnrollIterations int

	// fp is the fingerprint namespacing this configuration's keys in the
	// replicated store ("" on a bare NewPlanner).
	fp string
}

// NewPlanner returns a Planner for the job with full ReCycle techniques —
// the sequential baseline benchmarks and tests use; production consumers
// construct a full Engine instead.
func NewPlanner(job config.Job, stats profile.Stats) *Planner {
	return &Planner{Job: job, Stats: stats, Techniques: AllTechniques, UnrollIterations: 3}
}

// Shape returns the schedule shape the planner solves at: the job geometry
// plus the unroll window.
func (p *Planner) Shape() schedule.Shape {
	iters := p.UnrollIterations
	if iters < 1 {
		iters = 3
	}
	return schedule.Shape{
		DP:   p.Job.Parallel.DP,
		PP:   p.Job.Parallel.PP,
		MB:   p.Job.Batch.MicroBatchesPerPipeline(p.Job.Parallel),
		Iter: iters,
	}
}

// PlanFor generates the adaptive plan for the given number of simultaneous
// failures. Failure locations are normalized (Algorithm 1), so one plan
// serves any concrete failure set of that size.
func (p *Planner) PlanFor(failures int) (*Plan, error) {
	if failures < 0 {
		return nil, fmt.Errorf("engine: negative failure count %d", failures)
	}
	sh := p.Shape()
	if failures >= sh.DP*sh.PP {
		return nil, fmt.Errorf("engine: %d failures exceed the %d-worker job", failures, sh.DP*sh.PP)
	}
	start := time.Now()
	assign, err := normalizeFailures(sh.DP, sh.PP, sh.MB, failures)
	if err != nil {
		return nil, err
	}
	return p.solve(sh, assign, assignmentWorkers(assign, sh.DP), start)
}

// PlanConcrete generates the adaptive plan for a specific failed-worker
// set, skipping Failure Normalization. The live runtime Coordinator uses
// this when a stored normalized plan does not match the concrete failure
// locations and migrating parameters is not worth it (or, in-process, not
// meaningful); the figure gallery uses it to reproduce the paper's running
// example with worker W1_2 failed.
func (p *Planner) PlanConcrete(failed []schedule.Worker) (*Plan, error) {
	sh := p.Shape()
	ws := append([]schedule.Worker(nil), failed...)
	schedule.SortWorkers(ws)
	if err := checkFailed(sh, ws); err != nil {
		return nil, err
	}
	assign := make([]int, sh.PP)
	for _, w := range ws {
		assign[w.Stage]++
	}
	return p.solve(sh, assign, ws, time.Now())
}

// checkFailed rejects a sorted failed-worker set that names a worker
// outside the job's DP×PP grid, or one worker twice. It runs before any
// canonicalization, so an error names the worker the caller gave.
func checkFailed(sh schedule.Shape, ws []schedule.Worker) error {
	for i, w := range ws {
		if w.Stage < 0 || w.Stage >= sh.PP || w.Pipeline < 0 || w.Pipeline >= sh.DP {
			return fmt.Errorf("engine: failed worker %s outside the %dx%d job", w, sh.DP, sh.PP)
		}
		if i > 0 && ws[i-1] == w {
			return fmt.Errorf("engine: duplicate failed worker %s", w)
		}
	}
	return nil
}

// solve runs the schedule generation phase shared by PlanFor and
// PlanConcrete: the failed-worker set is fixed, the techniques translate
// into solver toggles, and the result is wrapped into a Plan.
func (p *Planner) solve(sh schedule.Shape, assign []int, failed []schedule.Worker, start time.Time) (*Plan, error) {
	if !p.Techniques.AdaptivePipelining && len(failed) > 0 {
		return nil, fmt.Errorf("engine: %d failures but Adaptive Pipelining disabled — no recovery path without spares", len(failed))
	}
	failedSet := make(map[schedule.Worker]bool, len(failed))
	for _, w := range failed {
		failedSet[w] = true
	}
	var costs schedule.CostFunc
	if p.Costs != nil {
		costs = p.Costs.Fn()
	}
	in := solver.Input{
		Shape:          sh,
		Durations:      p.Stats.Durations(),
		Costs:          costs,
		Failed:         failedSet,
		MemCapPerStage: p.Stats.MemCapPerStage,
		Decoupled:      p.Techniques.DecoupledBackProp,
		Staggered:      p.Techniques.StaggeredOptimizer,
		// Without Decoupled BackProp the execution engine lacks the split
		// backward instructions, so rerouted work can only be inserted
		// naively into the 1F1B skeleton (the Fig 3b behavior the Fig 11
		// ablation measures as "Adaptive Pipelining" alone).
		Naive: !p.Techniques.DecoupledBackProp,
	}
	s, err := solver.Solve(in)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Failures:    len(failed),
		Assignment:  assign,
		Failed:      failed,
		Schedule:    s,
		PeriodSlots: s.SteadyPeriod(),
		PlanTime:    time.Since(start),
	}, nil
}

// renamePlan applies a pipeline permutation to a plan — the engine's
// un-canonicalization step after solving one cost-equivalence-class
// representative per victim orbit (schedule.CanonicalizeVictims). The
// permutation must move pipelines only within cost-equivalence classes;
// the renamed schedule is then an exact isomorph of the original
// (schedule.RenamePipelines), so period, makespan and per-stage
// assignment carry over unchanged. The renamed plan keeps no Program of
// its own: CompiledProgram renames the representative's.
func renamePlan(p *Plan, perm []int) *Plan {
	failed := make([]schedule.Worker, len(p.Failed))
	for i, w := range p.Failed {
		failed[i] = schedule.Worker{Stage: w.Stage, Pipeline: perm[w.Pipeline]}
	}
	schedule.SortWorkers(failed)
	return &Plan{
		Failures:    p.Failures,
		Assignment:  p.Assignment,
		Failed:      failed,
		Schedule:    schedule.RenamePipelines(p.Schedule, perm),
		PeriodSlots: p.PeriodSlots,
		PlanTime:    p.PlanTime,
		rep:         p,
		perm:        perm,
	}
}

// IterationSeconds converts a plan's steady-state period into wall-clock
// seconds using the profile's duration unit.
func (p *Planner) IterationSeconds(plan *Plan) float64 {
	return float64(plan.PeriodSlots) * p.Stats.UnitSeconds
}

// ThroughputSamplesPerSec returns the steady-state training throughput
// under the plan: global batch size divided by iteration time.
func (p *Planner) ThroughputSamplesPerSec(plan *Plan) float64 {
	it := p.IterationSeconds(plan)
	if it <= 0 {
		return 0
	}
	return float64(p.Job.Batch.GlobalBatch) / it
}
