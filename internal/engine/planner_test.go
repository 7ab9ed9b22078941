package engine

import (
	"testing"
	"testing/quick"

	"recycle/internal/schedule"
)

// TestNormalizeSumsToF checks Algorithm 1's output invariant: the
// per-stage assignment sums to the failure count and never exceeds DP-1
// at a stage.
func TestNormalizeSumsToF(t *testing.T) {
	check := func(dpR, ppR, fR uint8) bool {
		dp := int(dpR%7) + 2
		pp := int(ppR%7) + 2
		maxF := pp * (dp - 1)
		f := int(fR) % (maxF + 1)
		a, err := normalizeFailures(dp, pp, dp*2, f)
		if err != nil {
			return false
		}
		sum := 0
		for _, x := range a {
			if x < 0 || x >= dp {
				return false
			}
			sum += x
		}
		return sum == f && len(a) == pp
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizeBalances checks intuition (a) of §4.2.1: failures spread
// across stages so no stage carries more than its fair share (+1).
func TestNormalizeBalances(t *testing.T) {
	for _, tc := range []struct{ dp, pp, mb, f int }{
		{16, 2, 64, 6},
		{8, 4, 128, 7},
		{4, 8, 256, 12},
		{32, 8, 64, 40},
	} {
		a, err := normalizeFailures(tc.dp, tc.pp, tc.mb, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		fair := (tc.f + tc.pp - 1) / tc.pp
		for stage, x := range a {
			if x > fair {
				t.Errorf("dp=%d pp=%d f=%d: stage %d assigned %d failures, fair share %d (assignment %v)",
					tc.dp, tc.pp, tc.f, stage, x, fair, a)
			}
		}
	}
}

// TestNormalizePrefersLaterStages checks intuition (b): with a single
// failure, the assignment lands on the last stage.
func TestNormalizePrefersLaterStages(t *testing.T) {
	a, err := normalizeFailures(3, 4, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("assignment %v, want %v", a, want)
		}
	}
}

// TestCostHeuristicShapes checks the COST heuristic: zero while bubbles
// absorb the rerouted work, convex beyond, prohibitive at f >= DP.
func TestCostHeuristicShapes(t *testing.T) {
	if c := normalizationCost(64, 16, 2, 1); c != 0 {
		t.Errorf("LLaMA-3-style config should absorb 1 failure free, got cost %d", c)
	}
	c1 := normalizationCost(4, 8, 256, 1)
	c2 := normalizationCost(4, 8, 256, 2)
	if !(c2 > 2*c1 && c1 > 0) {
		t.Errorf("cost not convex: COST(1)=%d COST(2)=%d", c1, c2)
	}
	if c := normalizationCost(4, 8, 256, 4); c < 1<<39 {
		t.Errorf("f=DP should be prohibitive, got %d", c)
	}
}

// TestMigrationsNeeded checks the point-to-point reconfiguration count.
func TestMigrationsNeeded(t *testing.T) {
	assign := []int{0, 0, 1, 1}
	concrete := []schedule.Worker{{Stage: 2, Pipeline: 0}, {Stage: 3, Pipeline: 1}}
	if got := migrationsNeeded(concrete, assign); got != 0 {
		t.Errorf("already normalized: want 0 migrations, got %d", got)
	}
	concrete = []schedule.Worker{{Stage: 0, Pipeline: 0}, {Stage: 0, Pipeline: 1}}
	if got := migrationsNeeded(concrete, assign); got != 2 {
		t.Errorf("both failures misplaced: want 2 migrations, got %d", got)
	}
}

// analyticPlanner is a bare planner over analyticJob.
func analyticPlanner(t *testing.T) *Planner {
	t.Helper()
	p := NewPlanner(analyticJob(t))
	p.UnrollIterations = 2
	return p
}

// TestPlannerMonotoneDegradation checks that more failures never yield a
// meaningfully faster plan. The list scheduler (like the MILP it stands in
// for, which Gurobi also solves only to a gap) may wobble by a fraction of
// a percent between adjacent failure counts; 0.5% is tolerated.
func TestPlannerMonotoneDegradation(t *testing.T) {
	p := analyticPlanner(t)
	var prev int64
	for f := 0; f <= 3; f++ {
		plan, err := p.PlanFor(f)
		if err != nil {
			t.Fatal(err)
		}
		if float64(plan.PeriodSlots) < float64(prev)*0.995 {
			t.Errorf("f=%d period %d more than 0.5%% shorter than f=%d's %d", f, plan.PeriodSlots, f-1, prev)
		}
		if plan.PeriodSlots > prev {
			prev = plan.PeriodSlots
		}
	}
}

// TestPlannerSchedulesValidate runs the MILP constraint checker over
// generated plans, including the profile-derived memory caps.
func TestPlannerSchedulesValidate(t *testing.T) {
	p := analyticPlanner(t)
	for f := 0; f <= 3; f++ {
		plan, err := p.PlanFor(f)
		if err != nil {
			t.Fatal(err)
		}
		cfg := schedule.ValidateConfig{Decoupled: true}
		if caps := p.Stats.MemCapPerStage; caps != nil {
			cfg.MemCap = caps[0]
		}
		if err := schedule.Validate(plan.Schedule, cfg); err != nil {
			t.Errorf("plan f=%d invalid: %v", f, err)
		}
	}
}

// TestPlanAllAndStore checks the offline phase: warming lands a plan for
// every count in 0..DP-1 in the engine's Best(n) index, and best falls
// back to the smallest larger plan when the exact count is missing.
func TestPlanAllAndStore(t *testing.T) {
	job, stats := analyticJob(t)
	maxF := job.MaxPlannedFailures()
	if maxF != job.Parallel.DP-1 {
		t.Fatalf("max planned failures %d, want %d", maxF, job.Parallel.DP-1)
	}
	eng := New(job, stats, Options{UnrollIterations: 2})
	if err := eng.Warm(maxF).Wait(); err != nil {
		t.Fatal(err)
	}
	for f := 0; f <= maxF; f++ {
		if plan, ok := eng.best(f); !ok || plan.Failures != f {
			t.Fatalf("best(%d) = (%v, %v), want the %d-failure plan", f, plan, ok, f)
		}
	}

	gap := New(job, stats, Options{UnrollIterations: 2}) // private store: no 1- or 3-failure plan anywhere
	for _, f := range []int{0, 2} {
		if _, err := gap.Plan(f); err != nil {
			t.Fatal(err)
		}
	}
	if plan, ok := gap.best(1); !ok || plan.Failures != 2 {
		t.Fatalf("best(1) over {0, 2} = (%v, %v), want the 2-failure plan", plan, ok)
	}
	if plan, ok := gap.best(3); ok {
		t.Fatalf("best(3) over {0, 2} returned the %d-failure plan, want none", plan.Failures)
	}
}

// TestAblationOrdering checks Fig 11's monotone technique improvements at
// the planner level.
func TestAblationOrdering(t *testing.T) {
	p := analyticPlanner(t)
	period := func(tech Techniques) int64 {
		p.Techniques = tech
		plan, err := p.PlanFor(2)
		if err != nil {
			t.Fatal(err)
		}
		return plan.PeriodSlots
	}
	adaptive := period(Techniques{AdaptivePipelining: true})
	decoupled := period(Techniques{AdaptivePipelining: true, DecoupledBackProp: true})
	full := period(AllTechniques)
	if !(adaptive >= decoupled && decoupled >= full && adaptive > full) {
		t.Fatalf("ablation not monotone: adaptive=%d decoupled=%d full=%d", adaptive, decoupled, full)
	}
}

// TestNoAdaptiveNoRecovery checks that disabling Adaptive Pipelining
// removes the recovery path entirely.
func TestNoAdaptiveNoRecovery(t *testing.T) {
	p := analyticPlanner(t)
	p.Techniques = Techniques{}
	if _, err := p.PlanFor(1); err == nil {
		t.Fatal("expected error planning failures without Adaptive Pipelining")
	}
	if _, err := p.PlanFor(0); err != nil {
		t.Fatalf("fault-free planning should work without techniques: %v", err)
	}
}
