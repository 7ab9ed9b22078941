package engine

import (
	"testing"
	"time"

	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// victimComputeOps counts compute instructions a program places on w.
func victimComputeOps(p *schedule.Program, w schedule.Worker) int {
	n := 0
	for i := range p.Instrs {
		if p.Op(i).Type != schedule.Optimizer && p.Op(i).Worker() == w {
			n++
		}
	}
	return n
}

// TestMarkStragglerTriggersReplan pins the gray-failure re-plan loop:
// marking a straggler moves the plan fingerprint, so the next fetch
// re-solves under the updated cost model and routes work off the slow
// worker; clearing the mark restores the original cached plan without a
// new solve.
func TestMarkStragglerTriggersReplan(t *testing.T) {
	job, stats := ShapeJob(3, 4, 6)
	e := New(job, stats, Options{})
	victim := schedule.Worker{Stage: 0, Pipeline: 0}

	before, err := e.ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	solvesBefore := e.Metrics().Solves

	e.MarkStraggler(victim, 2)
	after, err := e.ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Solves; got != solvesBefore+1 {
		t.Fatalf("straggler mark did not trigger a re-solve: %d solves, want %d", got, solvesBefore+1)
	}
	ob, oa := victimComputeOps(before, victim), victimComputeOps(after, victim)
	if oa >= ob {
		t.Fatalf("re-plan did not demote the straggler: %d ops before, %d after", ob, oa)
	}
	if oa == 0 {
		t.Fatal("straggler was removed entirely; demotion keeps it contributing")
	}

	// Stamped durations on the aware program must charge the victim 2x.
	for i := range after.Instrs {
		op := after.Op(i)
		if op.Type == schedule.Optimizer {
			continue
		}
		want := after.Durations.Of(op.Type) // base: 1 slot, coupled B = 2
		if op.Worker() == victim {
			want *= 2
		}
		if got := after.DurOf(i); got != want {
			t.Fatalf("instruction %s stamped %d slots, want %d", op, got, want)
		}
	}

	// Clearing restores the uniform namespace: the original plan is still
	// cached, so no third solve happens.
	e.ClearStraggler(victim)
	cleared, err := e.ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().Solves; got != solvesBefore+1 {
		t.Fatalf("clearing the straggler re-solved (%d solves); the uniform plan should be cached", got)
	}
	if cleared != before {
		t.Fatal("cleared fetch did not return the cached uniform program")
	}
}

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

// TestRecalibrateComposesWithMarkStraggler races a straggler mark against
// a recalibration touching a different worker: each retune is one
// read-modify-write of the cost model, so whichever lands second builds
// on the first and both survive.
func TestRecalibrateComposesWithMarkStraggler(t *testing.T) {
	job, stats := ShapeJob(3, 4, 6)
	marked := schedule.Worker{Stage: 0, Pipeline: 0}
	drifted := schedule.Worker{Stage: 1, Pipeline: 0}
	measured := make(map[schedule.Worker]time.Duration)
	for s := 0; s < 4; s++ {
		for p := 0; p < 3; p++ {
			if w := (schedule.Worker{Stage: s, Pipeline: p}); w != marked {
				measured[w] = 100 * time.Millisecond
			}
		}
	}
	measured[drifted] = 150 * time.Millisecond
	for round := 0; round < 50; round++ {
		e := New(job, stats, Options{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.MarkStraggler(marked, 3)
		}()
		if _, err := e.Recalibrate(measured); err != nil {
			t.Fatal(err)
		}
		<-done
		cm := e.CostModel()
		if cm == nil || cm.WorkerScale[marked] != 3 || cm.WorkerScale[drifted] != 1.5 {
			t.Fatalf("round %d: cost model %s lost a retune; want %s at 3 and %s at 1.5", round, cm.Signature(), marked, drifted)
		}
	}
}
