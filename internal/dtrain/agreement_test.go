package dtrain

import (
	"testing"

	"recycle/internal/profile"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// TestSimRuntimeAgreementByConstruction is the acceptance check for the
// shared Program IR: for a faulted 3x4x6 job, the discrete-event
// simulator's virtual execution of the compiled Program and the live
// runtime's executed op timeline under unit slot durations are identical —
// not approximately, but instruction for instruction. Both executors
// interpret the same Program with the same recurrence, so agreement holds
// by construction; this test pins that property.
func TestSimRuntimeAgreementByConstruction(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5,
		Seed: 42, LR: 1e-2,
	}
	rt := New(cfg)
	rt.Fail(schedule.Worker{Stage: 2, Pipeline: 1}) // the paper's W1_2
	planned := plannedTimeline(t, rt)
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}

	prog, starts, ends := planned.Program, planned.Start, planned.End
	if prog == nil {
		t.Fatal("runtime recorded no executed timeline")
	}
	ex, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Completed != len(prog.Instrs) {
		t.Fatalf("simulator completed %d of %d instructions", ex.Completed, len(prog.Instrs))
	}
	for i := range prog.Instrs {
		if starts[i] != ex.Start[i] || ends[i] != ex.End[i] {
			t.Fatalf("instruction %d (%s): runtime span [%d,%d] != simulated span [%d,%d]",
				i, prog.Op(i), starts[i], ends[i], ex.Start[i], ex.End[i])
		}
	}
	executed := &sim.Execution{Program: prog, Start: starts, End: ends}
	if got, want := executed.ComputeMakespan(0), ex.ComputeMakespan(0); got != want {
		t.Fatalf("runtime compute makespan %d slots != simulator prediction %d", got, want)
	}
	if executed.ComputeMakespan(0) <= 0 {
		t.Fatal("degenerate zero-length timeline")
	}
}

// TestAgreementMidIterationFailureSplice extends the agreement property to
// the mid-iteration failure path: the DES-replayed derivation of a kill
// event (replay.LiveSplice + a Done/ReleaseAt-seeded virtual execution)
// and the live chaos run of the identical event execute
// instruction-identical spliced Programs with identical spans — and the
// live run's training math stays bitwise equal to a fault-free reference.
func TestAgreementMidIterationFailureSplice(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5,
		Seed: 42, LR: 1e-2,
	}
	rt := New(cfg)
	victims := []schedule.Worker{{Stage: 1, Pipeline: 2}}

	// DES side: reconstruct the event from the pre-event Program alone,
	// the way the trace replayer would.
	prog, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	cut := cutBeforeFirstStep(t, prog)
	lv, err := replay.LiveSplice(replay.LiveEvent{Prog: prog, Cut: cut, Fail: victims})
	if err != nil {
		t.Fatal(err)
	}
	if lv.LostOps == 0 {
		t.Fatalf("cut %d lost no completed work; the event is not exercising re-execution", cut)
	}
	des, err := sim.ExecuteProgram(lv.Program, sim.ProgramOptions{Done: lv.Done, ReleaseAt: lv.Floors})
	if err != nil {
		t.Fatal(err)
	}
	if des.Completed != len(lv.Program.Instrs) {
		t.Fatalf("DES completed %d of %d spliced instructions", des.Completed, len(lv.Program.Instrs))
	}

	// Live side: the chaos path runs the same event for real.
	planned := plannedTimeline(t, rt, CascadeEvent{Cut: cut, Fail: victims})
	loss, err := rt.RunIterationFailure(victims, cut)
	if err != nil {
		t.Fatal(err)
	}
	live, starts, ends := planned.Program, planned.Start, planned.End
	if len(live.Instrs) != len(lv.Program.Instrs) {
		t.Fatalf("live spliced Program has %d instructions, DES derivation %d", len(live.Instrs), len(lv.Program.Instrs))
	}
	for i := range live.Instrs {
		if live.Op(i) != lv.Program.Op(i) {
			t.Fatalf("instruction %d differs: live %s vs DES %s", i, live.Op(i), lv.Program.Op(i))
		}
		if starts[i] != des.Start[i] || ends[i] != des.End[i] {
			t.Fatalf("instruction %d (%s): live span [%d,%d] != DES span [%d,%d]",
				i, live.Op(i), starts[i], ends[i], des.Start[i], des.End[i])
		}
	}

	// The kill changed the schedule, never the math.
	ref := New(cfg)
	refLoss, err := ref.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if loss != refLoss {
		t.Fatalf("chaos-iteration loss %v != fault-free %v (training math must be bitwise preserved)", loss, refLoss)
	}
}

// TestAgreementHoldsAcrossFailureSets sweeps a few failure sets and
// iterations: the executed timeline must track the simulator's prediction
// every time the failure set (and hence the Program) changes.
func TestAgreementHoldsAcrossFailureSets(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5,
		Seed: 7, LR: 1e-2,
	}
	rt := New(cfg)
	failures := [][]schedule.Worker{
		nil,
		{{Stage: 2, Pipeline: 1}},
		{{Stage: 2, Pipeline: 1}, {Stage: 0, Pipeline: 2}},
	}
	for _, fs := range failures {
		for _, w := range fs {
			rt.Fail(w)
		}
		planned := plannedTimeline(t, rt)
		if _, err := rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
		prog, ends := planned.Program, planned.End
		ex, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range prog.Instrs {
			if ends[i] != ex.End[i] {
				t.Fatalf("failures=%v: instruction %d (%s) executed end %d != simulated %d",
					fs, i, prog.Op(i), ends[i], ex.End[i])
			}
		}
	}
}

// TestAgreementWithHeterogeneousDurations extends the by-construction
// agreement check to a cost-model plan: when the Program is solved and
// stamped with per-(stage, op, worker) durations (here a 3x straggler),
// the runtime's executed timeline carries exactly the stamped spans and
// the simulator's virtual execution matches instruction for instruction.
func TestAgreementWithHeterogeneousDurations(t *testing.T) {
	victim := schedule.Worker{Stage: 1, Pipeline: 0}
	cfg := Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5,
		Seed: 42, LR: 1e-2,
	}
	rt := New(cfg)
	rt.SetProgramSource(costSource(cfg, profile.UniformCost(profile.Unit()).WithWorkerScale(victim, 3)))
	rt.Fail(schedule.Worker{Stage: 2, Pipeline: 1}) // a hard failure on top of the gray one
	planned := plannedTimeline(t, rt)
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}

	prog, starts, ends := planned.Program, planned.Start, planned.End
	if prog == nil {
		t.Fatal("runtime recorded no executed timeline")
	}
	// The plan must actually be heterogeneous: some victim op stamped 3x.
	hetero := false
	for i := range prog.Instrs {
		op := prog.Op(i)
		if op.Type != schedule.Optimizer && op.Worker() == victim && prog.DurOf(i) == 3*prog.Durations.Of(op.Type) {
			hetero = true
			break
		}
	}
	if !hetero {
		t.Fatal("no instruction on the straggler carries a scaled duration")
	}
	ex, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Completed != len(prog.Instrs) {
		t.Fatalf("simulator completed %d of %d instructions", ex.Completed, len(prog.Instrs))
	}
	for i := range prog.Instrs {
		if starts[i] != ex.Start[i] || ends[i] != ex.End[i] {
			t.Fatalf("instruction %d (%s): runtime span [%d,%d] != simulated span [%d,%d]",
				i, prog.Op(i), starts[i], ends[i], ex.Start[i], ex.End[i])
		}
	}
}

// plannedTimeline returns the timeline rt.RunIteration(events...) executes
// when the iteration succeeds: the last chain's Exec of the runtime's plan
// for the events — the interpreted Program and each instruction's logical
// span (start, end in slot units), indexed by instruction ID, which is
// what the interpreter's spans, cut points and stream bounds are read
// from. Planning changes no runtime state, so call it just before
// RunIteration. The slices are read-only.
func plannedTimeline(t *testing.T, rt *Runtime, events ...CascadeEvent) *sim.Execution {
	t.Helper()
	chains, _, err := rt.planIteration(events)
	if err != nil {
		t.Fatal(err)
	}
	return chains[len(chains)-1].Exec
}
