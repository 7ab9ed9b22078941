package engine

import (
	"slices"
	"testing"
	"time"

	"recycle/internal/schedule"
)

// TestPlanConcreteClassDedup checks symmetry breaking end to end: under
// homogeneous costs all pipelines are interchangeable, so concrete victim
// sets that differ only by the victim's pipeline share one solve. Every
// returned plan must carry its own requested victims and validate.
func TestPlanConcreteClassDedup(t *testing.T) {
	job, stats := analyticJob(t)
	eng := New(job, stats, Options{UnrollIterations: 2})

	a := []schedule.Worker{{Stage: 0, Pipeline: 1}}
	b := []schedule.Worker{{Stage: 0, Pipeline: 2}}
	pa, err := eng.PlanConcrete(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := eng.PlanConcrete(b)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.Solves != 1 {
		t.Fatalf("two class-equivalent concrete requests took %d solves, want 1", m.Solves)
	}
	if m.ClassDedups < 1 {
		t.Fatalf("ClassDedups = %d, want >= 1", m.ClassDedups)
	}
	for i, pair := range []struct {
		want []schedule.Worker
		plan *Plan
	}{{a, pa}, {b, pb}} {
		if len(pair.plan.Failed) != 1 || pair.plan.Failed[0] != pair.want[0] {
			t.Fatalf("plan %d failed set %v, want %v", i, pair.plan.Failed, pair.want)
		}
		if !pair.plan.Schedule.Failed[pair.want[0]] {
			t.Fatalf("plan %d schedule does not mark %v failed", i, pair.want[0])
		}
		if err := schedule.Validate(pair.plan.Schedule, schedule.ValidateConfig{}); err != nil {
			t.Fatalf("plan %d schedule invalid: %v", i, err)
		}
	}
	if pa.PeriodSlots != pb.PeriodSlots {
		t.Fatalf("isomorphic plans disagree on period: %d vs %d", pa.PeriodSlots, pb.PeriodSlots)
	}

	// The same victim set again is a plain cache hit — no new dedup.
	if _, err := eng.PlanConcrete(b); err != nil {
		t.Fatal(err)
	}
	if m2 := eng.Metrics(); m2.Solves != 1 || m2.CacheHits == m.CacheHits {
		t.Fatalf("repeat concrete request: solves %d (want 1), cache hits %d -> %d (want a hit)", m2.Solves, m.CacheHits, m2.CacheHits)
	}

	// A stage-1 victim in every pipeline: one class, so DP requests cost
	// one solve and every other request is a rename of it.
	eng = New(job, stats, Options{UnrollIterations: 2})
	dp := job.Parallel.DP
	var first *Plan
	for p := 0; p < dp; p++ {
		w := schedule.Worker{Stage: 1, Pipeline: p}
		plan, err := eng.PlanConcrete([]schedule.Worker{w})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Failed) != 1 || plan.Failed[0] != w || !plan.Schedule.Failed[w] {
			t.Fatalf("victim %v: plan fails %v", w, plan.Failed)
		}
		if first == nil {
			first = plan
		} else if plan.PeriodSlots != first.PeriodSlots {
			t.Fatalf("victim %v: period %d, class representative %d", w, plan.PeriodSlots, first.PeriodSlots)
		}
	}
	if m := eng.Metrics(); m.Solves != 1 || m.ClassDedups < uint64(dp-1) {
		t.Fatalf("%d stage-1 victims: %d solves (want 1), %d class dedups (want >= %d)", dp, m.Solves, m.ClassDedups, dp-1)
	}
}

// TestRecalibrateThresholdAndWarmReplan checks the feedback loop: drift
// inside the threshold is a no-op; drift beyond it updates the cost model
// and re-solves the planned counts into exactly the schedules a fresh
// engine on the drifted model serves; uniform measurements afterwards
// drift back out onto the original namespace's cached plans.
func TestRecalibrateThresholdAndWarmReplan(t *testing.T) {
	job, stats := analyticJob(t)
	eng := New(job, stats, Options{UnrollIterations: 2})
	const maxF = 1
	if err := eng.Warm(maxF).Wait(); err != nil {
		t.Fatal(err)
	}
	var pre [maxF + 1]*Plan
	for f := range pre {
		p, err := eng.Plan(f)
		if err != nil {
			t.Fatal(err)
		}
		pre[f] = p
	}
	base := eng.Metrics()

	// Uniform measurements: every worker at the same speed — median
	// normalization cancels it all out, no drift at all.
	sh := eng.Shape()
	uniform := make(map[schedule.Worker]time.Duration)
	for s := 0; s < sh.PP; s++ {
		for p := 0; p < sh.DP; p++ {
			uniform[schedule.Worker{Stage: s, Pipeline: p}] = 80 * time.Millisecond
		}
	}
	rec, err := eng.Recalibrate(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Drifted || len(rec.Applied) != 0 || eng.CostModel() != nil {
		t.Fatalf("uniform measurements recalibrated: %+v (model %v)", rec, eng.CostModel())
	}

	// One worker 30% slow: past the 5% threshold, so the model gains a
	// multiplier for it and the working set re-plans under the new cost
	// namespace.
	slow := schedule.Worker{Stage: 1, Pipeline: 3}
	skew := make(map[schedule.Worker]time.Duration, len(uniform))
	for w, d := range uniform {
		skew[w] = d
	}
	skew[slow] = 104 * time.Millisecond
	rec, err = eng.Recalibrate(skew)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Drifted {
		t.Fatalf("30%% skew did not recalibrate: %+v", rec)
	}
	if f, ok := rec.Applied[slow]; !ok || f <= 1 {
		t.Fatalf("slow worker multiplier = %v (applied %v), want > 1", f, rec.Applied)
	}
	cm := eng.CostModel()
	if cm == nil || cm.WorkerScale[slow] != rec.Applied[slow] {
		t.Fatalf("cost model does not carry the applied multiplier: %+v", cm)
	}
	if want := []int{0, 1}; len(rec.Replanned) != len(want) || rec.Replanned[0] != want[0] || rec.Replanned[1] != want[1] {
		t.Fatalf("replanned counts %v, want %v", rec.Replanned, want)
	}
	m := eng.Metrics()
	if m.Solves == base.Solves {
		t.Fatal("recalibration did not re-solve the working set")
	}
	// The re-solved plans live in the new cost namespace and time the slow
	// worker honestly.
	p, err := eng.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(p.Schedule, schedule.ValidateConfig{Costs: cm.Fn()}); err != nil {
		t.Fatalf("recalibrated plan invalid under new costs: %v", err)
	}
	fresh := New(job, stats, Options{UnrollIterations: 2, CostModel: cm})
	for f := range pre {
		got, err := eng.Plan(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Plan(f)
		if err != nil {
			t.Fatal(err)
		}
		if got.PeriodSlots > want.PeriodSlots {
			t.Errorf("f=%d: recalibrated period %d worse than a fresh engine's %d", f, got.PeriodSlots, want.PeriodSlots)
		}
		if !slices.Equal(got.Schedule.Placements, want.Schedule.Placements) {
			t.Errorf("f=%d: recalibrated schedule differs from a fresh engine's", f)
		}
	}

	// Drift out: uniform measurements clear the multiplier, the model
	// normalizes back to nil, and the working set collapses onto the
	// pre-drift plans — cache hits, no solve.
	m = eng.Metrics()
	rec, err = eng.Recalibrate(uniform)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Drifted || eng.CostModel() != nil {
		t.Fatalf("uniform measurements did not drift back out: %+v (model %v)", rec, eng.CostModel())
	}
	for f := range pre {
		p, err := eng.Plan(f)
		if err != nil {
			t.Fatal(err)
		}
		if p != pre[f] {
			t.Errorf("f=%d: drift-out served period %d, want the pre-drift plan (period %d)", f, p.PeriodSlots, pre[f].PeriodSlots)
		}
	}
	out := eng.Metrics()
	if out.Solves != m.Solves {
		t.Fatalf("drift-out re-solved %d times, want 0", out.Solves-m.Solves)
	}
	if out.CacheHits < m.CacheHits+2*uint64(len(pre)) {
		t.Fatalf("drift-out: %d cache hits, want >= %d", out.CacheHits-m.CacheHits, 2*len(pre))
	}
}
