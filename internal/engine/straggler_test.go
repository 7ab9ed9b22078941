package engine

import (
	"testing"

	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// TestCostModelOptionSeedsPlanner checks that a model injected at
// construction drives the first solve, and that a uniform seeded model
// keys a different namespace than nil without changing the schedule.
func TestCostModelOptionSeedsPlanner(t *testing.T) {
	job, stats := ShapeJob(2, 2, 4)
	victim := schedule.Worker{Stage: 1, Pipeline: 0}
	cm := profile.UniformCost(stats).WithWorkerScale(victim, 3)
	e := New(job, stats, Options{CostModel: cm})
	if e.CostModel() != cm {
		t.Fatal("CostModel() does not return the injected model")
	}
	prog, err := e.ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range prog.Instrs {
		op := prog.Op(i)
		if op.Worker() == victim && op.Type == schedule.F {
			if prog.DurOf(i) != 3 {
				t.Fatalf("victim F stamped %d, want 3", prog.DurOf(i))
			}
			found = true
		}
	}
	if !found {
		t.Fatal("victim executes no forward at all")
	}

	plain := New(job, stats, Options{})
	uniform := New(job, stats, Options{CostModel: profile.UniformCost(stats)})
	p1, err := plain.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := uniform.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Schedule.Placements) != len(p2.Schedule.Placements) {
		t.Fatal("uniform cost model changed the schedule size")
	}
	for i := range p1.Schedule.Placements {
		if p1.Schedule.Placements[i] != p2.Schedule.Placements[i] {
			t.Fatalf("placement %d diverges under a uniform cost model", i)
		}
	}
}
