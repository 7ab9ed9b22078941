package sim

import (
	"slices"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// TestExecuteProgramUsesStampedDurations checks the DES's one duration
// source: a program compiled from a cost-model plan executes each
// instruction for exactly its stamped span, and a view re-timed by a
// homogeneous cost table (the Table 2 path) for exactly its re-stamped one,
// leaving the original Program and its plain timeline untouched.
func TestExecuteProgramUsesStampedDurations(t *testing.T) {
	job, stats := engine.ShapeJob(2, 2, 4)
	victim := schedule.Worker{Stage: 0, Pipeline: 0}
	cm := profile.UniformCost(stats).WithWorkerScale(victim, 2)
	e := engine.New(job, stats, engine.Options{CostModel: cm})
	prog, err := e.Program(0)
	if err != nil {
		t.Fatal(err)
	}

	ex, err := ExecuteProgram(prog, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sawScaled := false
	for i := range prog.Instrs {
		if got, want := ex.End[i]-ex.Start[i], prog.DurOf(i); got != want {
			t.Fatalf("instruction %d (%s) ran %d slots, stamped %d", i, prog.Op(i), got, want)
		}
		if prog.Op(i).Worker() == victim && prog.Op(i).Type != schedule.Optimizer &&
			prog.DurOf(i) == 2*prog.Durations.Of(prog.Op(i).Type) {
			sawScaled = true
		}
	}
	if !sawScaled {
		t.Fatal("no scaled instruction on the straggler — the stamp path was not exercised")
	}

	// A homogeneous view re-stamps every instruction; the Program keeps its
	// stamps and its memoized plain timeline.
	plain, err := Plain(prog)
	if err != nil {
		t.Fatal(err)
	}
	stamps := make([]int64, len(prog.Instrs))
	for i := range stamps {
		stamps[i] = prog.DurOf(i)
	}
	unit := schedule.UnitSlots
	view, err := prog.WithCosts(schedule.NewCostTable(prog.Shape, func(_ schedule.Worker, ty schedule.OpType) int64 { return unit.Of(ty) }))
	if err != nil {
		t.Fatal(err)
	}
	ex2, err := Plain(view)
	if err != nil {
		t.Fatal(err)
	}
	for i := range view.Instrs {
		if got, want := ex2.End[i]-ex2.Start[i], unit.Of(view.Op(i).Type); got != want {
			t.Fatalf("view: instruction %d ran %d slots, want %d", i, got, want)
		}
		if got := prog.DurOf(i); got != stamps[i] {
			t.Fatalf("the view re-stamped the original's instruction %d: %d, was %d", i, got, stamps[i])
		}
	}
	again, err := Plain(prog)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Start[0] != &plain.Start[0] || again.Makespan != plain.Makespan || !slices.Equal(again.End, ex.End) {
		t.Fatal("the view replaced or changed the original's plain timeline")
	}
	if ex2.Makespan == plain.Makespan {
		t.Fatalf("the unit-slot view keeps the straggler's makespan %d", plain.Makespan)
	}
}
