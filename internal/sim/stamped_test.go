package sim

import (
	"testing"

	"recycle/internal/engine"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// TestExecuteProgramUsesStampedDurations checks the DES default duration
// source: a program compiled from a cost-model plan executes each
// instruction for exactly its stamped span, while an explicit Durations
// override still supersedes the stamps (the Table 2 path).
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

	// Homogeneous override wins over stamps.
	unit := schedule.UnitSlots
	ex2, err := ExecuteProgram(prog, ProgramOptions{Durations: &unit})
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog.Instrs {
		if got, want := ex2.End[i]-ex2.Start[i], unit.Of(prog.Op(i).Type); got != want {
			t.Fatalf("override: instruction %d ran %d slots, want %d", i, got, want)
		}
	}
}
