package engine

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"recycle/internal/config"
	"recycle/internal/obs"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// analyticJob is a real (non-synthetic) job small enough to plan quickly.
func analyticJob(t *testing.T) (config.Job, profile.Stats) {
	t.Helper()
	job := config.Job{
		Model:    config.GPT3XL,
		Parallel: config.Parallelism{DP: 4, PP: 4, TP: 1},
		Batch:    config.Batch{GlobalBatch: 128, MicroBatch: 2},
		Hardware: config.A100x1,
	}
	stats, err := profile.Analytic(job)
	if err != nil {
		t.Fatal(err)
	}
	return job, stats
}

// TestPlanAllParallelMatchesSequential checks that the concurrent offline
// phase produces exactly the plans the sequential core path produces.
func TestPlanAllParallelMatchesSequential(t *testing.T) {
	job, stats := analyticJob(t)
	eng := New(job, stats, Options{UnrollIterations: 2})
	if err := eng.Warm(0); err != nil {
		t.Fatal(err)
	}

	seq := NewPlanner(job, stats)
	seq.UnrollIterations = 2
	for f := 0; f < job.Parallel.DP; f++ {
		want, err := seq.PlanFor(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Plan(f)
		if err != nil {
			t.Fatal(err)
		}
		if got.PeriodSlots != want.PeriodSlots {
			t.Errorf("f=%d: parallel period %d != sequential %d", f, got.PeriodSlots, want.PeriodSlots)
		}
		if !reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Errorf("f=%d: assignments differ: %v vs %v", f, got.Assignment, want.Assignment)
		}
		if !reflect.DeepEqual(got.Schedule.Placements, want.Schedule.Placements) {
			t.Errorf("f=%d: placements differ", f)
		}
	}
	if m := eng.Metrics(); m.Solves != uint64(job.Parallel.DP) {
		t.Errorf("warming ran %d solves, want %d", m.Solves, job.Parallel.DP)
	}
}

// TestPlanCoalescesConcurrentRequests checks that many concurrent callers
// asking for the same plan trigger exactly one solve.
func TestPlanCoalescesConcurrentRequests(t *testing.T) {
	job, stats := analyticJob(t)
	eng := New(job, stats, Options{UnrollIterations: 2})

	const callers = 16
	var wg sync.WaitGroup
	plans := make([]*Plan, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = eng.Plan(2)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got a different plan instance", i)
		}
	}
	if m := eng.Metrics(); m.Solves != 1 {
		t.Errorf("%d concurrent callers caused %d solves, want 1", callers, m.Solves)
	}
}

// solveGate is a recorder that holds every solve at its start until gate
// is closed, signalling began as each of its first solves starts.
type solveGate struct {
	began chan struct{}
	gate  chan struct{}
}

func (r *solveGate) Enabled() bool                          { return true }
func (r *solveGate) Span(obs.Span)                          {}
func (r *solveGate) BeginProgram(string, *schedule.Program) {}
func (r *solveGate) Event(ev obs.Event) {
	if ev.Kind == obs.EvPlanSolve {
		select {
		case r.began <- struct{}{}:
		default:
		}
		<-r.gate
	}
}

// TestFailedSolveIsNotCached pins what a failed solve leaves behind:
// nothing. Concurrent first callers of a set the solver rejects (every
// worker of stage 0 down) all get the error of one solve, and the next
// call solves again.
func TestFailedSolveIsNotCached(t *testing.T) {
	job, stats := ShapeJob(2, 2, 4)
	eng := New(job, stats, Options{UnrollIterations: 1})
	rec := &solveGate{began: make(chan struct{}, 2), gate: make(chan struct{})}
	eng.SetRecorder(rec)
	stage0 := []schedule.Worker{{Stage: 0, Pipeline: 0}, {Stage: 0, Pipeline: 1}}

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = eng.PlanConcrete(stage0)
		}()
	}
	<-rec.began
	for deadline := time.Now().Add(5 * time.Second); eng.Metrics().Coalesced < callers-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers coalesced onto the solve in flight", eng.Metrics().Coalesced, callers-1)
		}
	}
	close(rec.gate)
	wg.Wait()
	for i, err := range errs {
		if err == nil || err.Error() != errs[0].Error() {
			t.Fatalf("caller %d got %v, want the one solve's error %v", i, err, errs[0])
		}
	}
	if m := eng.Metrics(); m.Solves != 1 || m.CacheHits != 0 {
		t.Fatalf("%d concurrent callers: %d solves and %d cache hits, want 1 and 0", callers, m.Solves, m.CacheHits)
	}
	if _, err := eng.PlanConcrete(stage0); err == nil {
		t.Fatal("a retried solve of a rejected set succeeded")
	}
	if m := eng.Metrics(); m.Solves != 2 || m.CacheHits != 0 {
		t.Fatalf("the retry made %d solves in all and %d cache hits, want 2 and 0: the error was cached", m.Solves, m.CacheHits)
	}
}

// planFor is ProgramFor's plan half, for tests that check the schedule
// behind a fetch: the healthy plan for an empty set, else the cached
// concrete plan or Best(n) (cached), else PlanConcrete — which, for a
// class-dedup rename, builds the renamed plan ProgramFor never caches.
func (e *Engine) planFor(failed map[schedule.Worker]bool) (*Plan, error) {
	ws := workerList(failed)
	if len(ws) == 0 {
		return e.Plan(0)
	}
	if en, ok := e.cached(ckey(e.conf.fp, ws), ws); ok && en.plan.Load() != nil {
		return en.plan.Load(), nil
	}
	return e.PlanConcrete(ws)
}

// TestPlanForCoordinatorFlow checks the failure-handling fetch order: a
// concrete failure set matching the warmed normalized plan is served via
// Best(n) without a new solve; a mismatching set solves on demand; the
// fault-free set uses the normalized plan for zero failures.
func TestPlanForCoordinatorFlow(t *testing.T) {
	job, stats := ShapeJob(3, 4, 6)
	eng := New(job, stats, Options{UnrollIterations: 1})
	if err := eng.Warm(2); err != nil {
		t.Fatal(err)
	}
	base := eng.Metrics().Solves

	// The normalized single-failure plan fails (stage PP-1, pipeline DP-1).
	normPlan, err := eng.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	match := map[schedule.Worker]bool{normPlan.Failed[0]: true}
	p, err := eng.planFor(match)
	if err != nil {
		t.Fatal(err)
	}
	if p != normPlan {
		t.Error("matching concrete set should reuse the warmed normalized plan")
	}
	m := eng.Metrics()
	if m.Solves != base {
		t.Errorf("matching set caused %d extra solves", m.Solves-base)
	}
	if m.BestHits != 1 {
		t.Errorf("BestHits = %d, want 1", m.BestHits)
	}

	// A different concrete location misses and solves on demand.
	other := map[schedule.Worker]bool{{Stage: 1, Pipeline: 0}: true}
	p2, err := eng.planFor(other)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Schedule.Failed[schedule.Worker{Stage: 1, Pipeline: 0}] {
		t.Error("on-demand schedule does not route around the concrete failure")
	}
	if got := eng.Metrics().Solves; got != base+1 {
		t.Errorf("mismatching set: %d solves, want %d", got, base+1)
	}
	// Fetching the same set again is a pure cache hit.
	if _, err := eng.planFor(other); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Solves; got != base+1 {
		t.Errorf("repeat fetch re-solved: %d solves, want %d", got, base+1)
	}

	// Fault-free fetch uses the normalized zero-failure plan.
	ff, err := eng.planFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Schedule.Failed) != 0 {
		t.Error("fault-free fetch returned a degraded schedule")
	}
}

// TestReCycleThroughputBounded checks that the period under failures never
// beats fault-free (adaptive schedules repair, they do not re-optimize)
// and stays within twice it while failures fit the bubble capacity.
// Between consecutive failure counts the list scheduler may wobble by a
// small factor (the MILP it stands in for is also only near-optimal), so
// strict monotonicity is not asserted.
func TestReCycleThroughputBounded(t *testing.T) {
	job, stats := analyticJob(t)
	eng := New(job, stats, Options{UnrollIterations: 2})
	ff, err := eng.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= 4; f++ {
		p, err := eng.Plan(f)
		if err != nil {
			t.Fatal(err)
		}
		if p.PeriodSlots < ff.PeriodSlots {
			t.Fatalf("period with %d failures (%d) beats fault-free (%d)", f, p.PeriodSlots, ff.PeriodSlots)
		}
		if p.PeriodSlots > 2*ff.PeriodSlots {
			t.Fatalf("period with %d failures (%d) exceeds twice fault-free (%d)", f, p.PeriodSlots, ff.PeriodSlots)
		}
	}
}

// techniqueEngines builds two engines over one shared plan store that
// differ only in their technique toggles — the Fig 11 ablation builds one
// engine per technique set: full ReCycle and Adaptive Pipelining alone.
func techniqueEngines() (full, adaptive *Engine) {
	job, stats := ShapeJob(3, 4, 6)
	store := planstore.New(3)
	only := Techniques{}
	full = New(job, stats, Options{UnrollIterations: 4, Store: store})
	adaptive = New(job, stats, Options{UnrollIterations: 4, Store: store, Techniques: &only})
	return full, adaptive
}

// binputs counts the decoupled input-gradient instructions of a Program.
func binputs(p *schedule.Program) int {
	n := 0
	for i := range p.Instrs {
		if p.Op(i).Type == schedule.BInput {
			n++
		}
	}
	return n
}

// checkOwnProgram requires the adaptive-only engine to have solved and
// compiled its Program itself: nothing decoded out of the store it shares
// with the full-technique engine, no Best(n) hit, and no decoupled BInput
// in what it serves.
func checkOwnProgram(t *testing.T, eng *Engine, prog *schedule.Program) {
	t.Helper()
	if m := eng.Metrics(); m.Solves != 1 || m.Compiles != 1 || m.StoreHits != 0 || m.BestHits != 0 {
		t.Errorf("adaptive-only engine: %d solves, %d compiles, %d store hits, %d Best(n) hits; want its own solve and compile",
			m.Solves, m.Compiles, m.StoreHits, m.BestHits)
	}
	if n := binputs(prog); n != 0 {
		t.Errorf("adaptive-only Program carries %d decoupled BInput instructions from the other namespace", n)
	}
}

// TestTechniqueRetuningAddressesNewNamespace checks that an engine never
// serves a Program compiled under different technique toggles, even when
// the Program sits in the replicated store it shares with the engine that
// compiled it.
func TestTechniqueRetuningAddressesNewNamespace(t *testing.T) {
	fullEng, naiveEng := techniqueEngines()
	full, err := fullEng.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	fullProg, err := fullEng.CompiledProgram(full)
	if err != nil {
		t.Fatal(err)
	}
	if binputs(fullProg) == 0 {
		t.Fatal("full-technique Program should contain decoupled BInput instructions")
	}
	naive, err := naiveEng.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if naive.PeriodSlots <= full.PeriodSlots {
		t.Errorf("naive period %d not worse than full-technique period %d — store namespace collision?",
			naive.PeriodSlots, full.PeriodSlots)
	}
	naiveProg, err := naiveEng.CompiledProgram(naive)
	if err != nil {
		t.Fatal(err)
	}
	checkOwnProgram(t, naiveEng, naiveProg)
}

// TestProgramForNeverCrossesTechniqueNamespace guards the Best(n) index
// and the shared store: once the full-technique engine has warmed every
// count and replicated the Program of a concrete failure set, an
// adaptive-only engine on the same store still finds no plan of its own,
// and its fetch for that set is solved and compiled under its toggles,
// never served from the other namespace.
func TestProgramForNeverCrossesTechniqueNamespace(t *testing.T) {
	fullEng, naiveEng := techniqueEngines()
	if err := fullEng.Warm(0); err != nil {
		t.Fatal(err)
	}
	full, err := fullEng.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	set := map[schedule.Worker]bool{full.Failed[0]: true}
	fullProg, err := fullEng.ProgramFor(set)
	if err != nil {
		t.Fatal(err)
	}
	if binputs(fullProg) == 0 {
		t.Fatal("full-technique Program should contain decoupled BInput ops")
	}
	if _, ok := naiveEng.best(1); ok {
		t.Fatal("best(1) found a plan in the naive namespace although none was planned there")
	}

	prog, err := naiveEng.ProgramFor(set)
	if err != nil {
		t.Fatal(err)
	}
	if prog == fullProg {
		t.Fatal("ProgramFor served the full-technique Program")
	}
	checkOwnProgram(t, naiveEng, prog)
}

// TestStoreHoldsOnlyPrograms checks that the replicated store holds one
// artifact: after warming every normalized plan and fetching the Program
// of every single failure, every key it holds addresses a Program.
func TestStoreHoldsOnlyPrograms(t *testing.T) {
	job, stats := ShapeJob(3, 2, 4)
	store := planstore.New(3)
	eng := New(job, stats, Options{UnrollIterations: 1, Store: store})
	if err := eng.Warm(0); err != nil {
		t.Fatal(err)
	}
	for stage := range 2 {
		for pipeline := range 3 {
			if _, err := eng.ProgramFor(map[schedule.Worker]bool{{Stage: stage, Pipeline: pipeline}: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	keys := store.Keys()
	if len(keys) == 0 {
		t.Fatal("the store holds nothing after six Program fetches")
	}
	for _, k := range keys {
		if !strings.HasPrefix(k, "programs/") {
			t.Errorf("the store holds %q, which is not a Program", k)
		}
	}
}

// TestPlanRejectsInvalidCounts checks error paths stay uncached.
func TestPlanRejectsInvalidCounts(t *testing.T) {
	job, stats := ShapeJob(2, 2, 4)
	eng := New(job, stats, Options{})
	if _, err := eng.Plan(-1); err == nil {
		t.Error("negative failure count should fail")
	}
	if _, err := eng.Plan(4); err == nil {
		t.Error("planning more failures than workers should fail")
	}
	if _, err := eng.Plan(4); err == nil {
		t.Error("repeated invalid request should still fail")
	}
}

// TestConcreteRejectsBadVictims checks that a victim set naming a worker
// outside the job, or one worker twice, is an error in the caller's own
// names — not a panic in canonicalization, and not a report about the
// renamed class representative — on the slice and map fetch paths alike,
// under homogeneous and heterogeneous costs.
func TestConcreteRejectsBadVictims(t *testing.T) {
	job, stats := ShapeJob(3, 2, 4)
	slow := profile.UniformCost(stats).WithWorkerScale(schedule.Worker{Stage: 0, Pipeline: 0}, 2)
	w := func(pipeline, stage int) schedule.Worker { return schedule.Worker{Stage: stage, Pipeline: pipeline} }
	for _, tc := range []struct {
		name   string
		failed []schedule.Worker
		bad    schedule.Worker
	}{
		{"pipeline past DP", []schedule.Worker{w(3, 0)}, w(3, 0)},
		{"stage past PP", []schedule.Worker{w(2, 2)}, w(2, 2)},
		{"negative pipeline", []schedule.Worker{w(-1, 1)}, w(-1, 1)},
		{"negative stage", []schedule.Worker{w(1, -1)}, w(1, -1)},
		{"next to a valid victim", []schedule.Worker{w(1, 0), w(4, 1)}, w(4, 1)},
		{"duplicate", []schedule.Worker{w(2, 1), w(2, 1)}, w(2, 1)},
	} {
		for _, cm := range []*profile.CostModel{nil, slow} {
			eng := New(job, stats, Options{UnrollIterations: 1, CostModel: cm})
			check := func(path string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), tc.bad.String()) {
					t.Errorf("%s (costs %v) via %s: error %v, want one naming %s", tc.name, cm != nil, path, err, tc.bad)
				}
			}
			_, err := eng.PlanConcrete(tc.failed)
			check("PlanConcrete", err)
			_, err = eng.ProgramConcrete(tc.failed)
			check("ProgramConcrete", err)
			set := make(map[schedule.Worker]bool)
			for _, v := range tc.failed {
				set[v] = true
			}
			if len(set) == len(tc.failed) { // a map cannot hold a duplicate
				_, err = eng.ProgramFor(set)
				check("ProgramFor", err)
			}
		}
	}
}
