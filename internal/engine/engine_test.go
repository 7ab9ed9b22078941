package engine

import (
	"reflect"
	"sync"
	"testing"

	"recycle/internal/config"
	"recycle/internal/core"
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
	if err := eng.Warm(0).Wait(); err != nil {
		t.Fatal(err)
	}

	seq := core.New(job, stats)
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
	plans := make([]*core.Plan, callers)
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

// TestSharedStoreServesSecondEngine checks the store round-trip across
// engines: plans written by one engine are decoded — not re-solved — by a
// second engine sharing the replicated store.
func TestSharedStoreServesSecondEngine(t *testing.T) {
	job, stats := analyticJob(t)
	store := planstore.New(3)
	engA := New(job, stats, Options{UnrollIterations: 2, Store: store})
	if err := engA.Warm(2).Wait(); err != nil {
		t.Fatal(err)
	}

	engB := New(job, stats, Options{UnrollIterations: 2, Store: store})
	want, err := engA.Plan(2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engB.Plan(2)
	if err != nil {
		t.Fatal(err)
	}
	m := engB.Metrics()
	if m.Solves != 0 || m.StoreHits != 1 {
		t.Errorf("second engine: %d solves and %d store hits, want 0 and 1", m.Solves, m.StoreHits)
	}
	// Solver provenance (warm-start hint, solve kind) is in-memory-only
	// metadata and never crosses the store; compare plan content.
	wantC, gotC := *want, *got
	wantC.Hint, wantC.SolveKind = nil, ""
	gotC.Hint, gotC.SolveKind = nil, ""
	if !reflect.DeepEqual(&wantC, &gotC) {
		t.Error("plan decoded from the shared store differs from the original")
	}
}

// TestScheduleForCoordinatorFlow checks the failure-handling fetch order:
// a concrete failure set matching the stored normalized plan is served via
// Best(n) without a new solve; a mismatching set solves on demand; the
// fault-free set uses the normalized plan for zero failures.
func TestScheduleForCoordinatorFlow(t *testing.T) {
	job, stats := ShapeJob(3, 4, 6)
	eng := New(job, stats, Options{UnrollIterations: 1})
	if err := eng.Warm(2).Wait(); err != nil {
		t.Fatal(err)
	}
	base := eng.Metrics().Solves

	// The normalized single-failure plan fails (stage PP-1, pipeline DP-1).
	normPlan, err := eng.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	match := map[schedule.Worker]bool{normPlan.Failed[0]: true}
	s, err := eng.ScheduleFor(match)
	if err != nil {
		t.Fatal(err)
	}
	if s != normPlan.Schedule {
		t.Error("matching concrete set should reuse the stored normalized plan")
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
	s2, err := eng.ScheduleFor(other)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Failed[schedule.Worker{Stage: 1, Pipeline: 0}] {
		t.Error("on-demand schedule does not route around the concrete failure")
	}
	if got := eng.Metrics().Solves; got != base+1 {
		t.Errorf("mismatching set: %d solves, want %d", got, base+1)
	}
	// Fetching the same set again is a pure cache hit.
	if _, err := eng.ScheduleFor(other); err != nil {
		t.Fatal(err)
	}
	if got := eng.Metrics().Solves; got != base+1 {
		t.Errorf("repeat fetch re-solved: %d solves, want %d", got, base+1)
	}

	// Fault-free fetch uses the normalized zero-failure plan.
	ff, err := eng.ScheduleFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.Failed) != 0 {
		t.Error("fault-free fetch returned a degraded schedule")
	}
}

// TestBestFallsBackToLargerPlan mirrors the core store semantics at the
// engine level.
func TestBestFallsBackToLargerPlan(t *testing.T) {
	job, stats := analyticJob(t)
	eng := New(job, stats, Options{UnrollIterations: 2})
	if _, err := eng.Plan(2); err != nil {
		t.Fatal(err)
	}
	p, ok := eng.Best(1)
	if !ok || p.Failures != 2 {
		t.Fatalf("Best(1) = (%v, %v), want the 2-failure plan", p, ok)
	}
	if _, ok := eng.Best(3); ok {
		t.Error("Best(3) found a plan although none covers 3 failures")
	}
}

// TestTechniqueRetuningAddressesNewNamespace checks that mutating the
// planner's techniques (as the Fig 11 ablation does) never serves a plan
// solved under different toggles.
func TestTechniqueRetuningAddressesNewNamespace(t *testing.T) {
	job, stats := ShapeJob(3, 4, 6)
	eng := New(job, stats, Options{UnrollIterations: 4})
	full, err := eng.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Planner().Techniques = core.Techniques{AdaptivePipelining: true}
	naive, err := eng.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if naive.PeriodSlots <= full.PeriodSlots {
		t.Errorf("naive period %d not worse than full-technique period %d — cache namespace collision?",
			naive.PeriodSlots, full.PeriodSlots)
	}
	if m := eng.Metrics(); m.Solves != 2 {
		t.Errorf("technique retune: %d solves, want 2", m.Solves)
	}
}

// TestScheduleForNeverCrossesTechniqueNamespace guards the Best(n) index
// against planner retuning: after switching to naive techniques, a
// concrete failure set matching the previously stored full-technique plan
// must be re-solved under the new toggles, never served stale.
func TestScheduleForNeverCrossesTechniqueNamespace(t *testing.T) {
	job, stats := ShapeJob(3, 4, 6)
	eng := New(job, stats, Options{UnrollIterations: 4})
	if err := eng.Warm(0).Wait(); err != nil {
		t.Fatal(err)
	}
	full, err := eng.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Schedule.OpCount(0, schedule.BInput) == 0 {
		t.Fatal("full-technique plan should contain decoupled BInput ops")
	}

	eng.Planner().Techniques = core.Techniques{AdaptivePipelining: true}
	s, err := eng.ScheduleFor(map[schedule.Worker]bool{full.Failed[0]: true})
	if err != nil {
		t.Fatal(err)
	}
	if s == full.Schedule {
		t.Fatal("ScheduleFor served the stale full-technique schedule after retuning")
	}
	if s.OpCount(0, schedule.BInput) != 0 {
		t.Error("naive-technique schedule contains decoupled BInput ops from the old namespace")
	}
	if _, ok := eng.Best(1); ok {
		t.Error("Best(1) found a plan in the naive namespace although none was planned there")
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
