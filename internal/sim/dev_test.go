package sim

import (
	"slices"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/obs"
	"recycle/internal/schedule"
)

func compile1F1B(t *testing.T, shape schedule.Shape) *schedule.Program {
	t.Helper()
	p, err := schedule.Compile(schedule.FaultFree1F1B(shape, schedule.UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExecuteFaultFreeMatchesSchedule checks the DES against the paper's
// Figure 3a: the 3x4x6 fault-free program under unit slots completes its
// compute in 27 slots, exactly the schedule's makespan (1F1B placements are
// already earliest-start).
func TestExecuteFaultFreeMatchesSchedule(t *testing.T) {
	shape := schedule.Shape{DP: 3, PP: 4, MB: 6, Iter: 1}
	s := schedule.FaultFree1F1B(shape, schedule.UnitSlots)
	p, err := schedule.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ExecuteProgram(p, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.ComputeMakespan(0); got != 27 {
		t.Fatalf("fault-free compute makespan %d slots, want 27", got)
	}
	if got, want := ex.ComputeMakespan(0), s.ComputeMakespan(0); got != want {
		t.Fatalf("DES compute makespan %d != schedule %d", got, want)
	}
	if ex.Completed != len(p.Instrs) || len(ex.Lost)+len(ex.Blocked) > 0 {
		t.Fatalf("%d of %d instructions completed, %d lost, %d blocked on a healthy fleet", ex.Completed, len(p.Instrs), len(ex.Lost), len(ex.Blocked))
	}
}

// TestExecuteFaultedProgram executes the running example's adapted plan
// (W1_2 failed) end to end in virtual time: everything completes, within
// the solver's makespan, and no op lands on the failed worker.
func TestExecuteFaultedProgram(t *testing.T) {
	job, stats := engine.ShapeJob(3, 4, 6)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	failed := schedule.Worker{Stage: 2, Pipeline: 1}
	prog, err := eng.ProgramFor(map[schedule.Worker]bool{failed: true})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ExecuteProgram(prog, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Completed != len(prog.Instrs) {
		t.Fatalf("only %d of %d instructions completed", ex.Completed, len(prog.Instrs))
	}
	plan, err := eng.PlanConcrete([]schedule.Worker{failed})
	if err != nil {
		t.Fatal(err)
	}
	if got, max := ex.ComputeMakespan(0), plan.Schedule.ComputeMakespan(0); got > max {
		t.Fatalf("eager execution (%d slots) slower than the solved schedule (%d)", got, max)
	}
	for _, busy := range []map[schedule.Worker]int64{ex.WorkerBusy()} {
		if busy[failed] != 0 {
			t.Fatalf("failed worker %s executed %d slots of work", failed, busy[failed])
		}
	}
}

// straggle returns p re-timed with worker w running every op factor times
// slower.
func straggle(t *testing.T, p *schedule.Program, w schedule.Worker, factor int64) *schedule.Program {
	t.Helper()
	view, err := p.WithCosts(schedule.NewCostTable(p.Shape, func(v schedule.Worker, ty schedule.OpType) int64 {
		if v == w {
			return factor * p.Cost(v, ty)
		}
		return p.Cost(v, ty)
	}))
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// TestStragglerStretchesMakespan checks per-worker heterogeneity: slowing
// one stage-0 worker 4x must strictly lengthen the iteration.
func TestStragglerStretchesMakespan(t *testing.T) {
	p := compile1F1B(t, schedule.Shape{DP: 2, PP: 4, MB: 8, Iter: 1})
	base, err := ExecuteProgram(p, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ExecuteProgram(straggle(t, p, schedule.Worker{Stage: 0, Pipeline: 0}, 4), ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= base.Makespan {
		t.Fatalf("straggler makespan %d not above baseline %d", slow.Makespan, base.Makespan)
	}
}

// TestMidIterationFailure kills a stage-1 worker mid-iteration: upstream
// work completes, the worker's remaining ops are lost, and downstream
// consumers block — the scenario a steady-state throughput scalar cannot
// model.
func TestMidIterationFailure(t *testing.T) {
	p := compile1F1B(t, schedule.Shape{DP: 1, PP: 3, MB: 6, Iter: 1})
	victim := schedule.Worker{Stage: 1, Pipeline: 0}
	ex, err := ExecuteProgram(p, ProgramOptions{
		FailAt: map[schedule.Worker]int64{victim: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Lost) == 0 {
		t.Fatal("no instructions lost on the failed worker")
	}
	if len(ex.Blocked) == 0 {
		t.Fatal("no downstream instructions blocked on the lost work")
	}
	if ex.Completed+len(ex.Lost)+len(ex.Blocked) != len(p.Instrs) {
		t.Fatalf("%d completed, %d lost and %d blocked do not cover %d instructions", ex.Completed, len(ex.Lost), len(ex.Blocked), len(p.Instrs))
	}
	for _, id := range ex.Lost {
		if got := p.Op(id).Worker(); got != victim {
			t.Fatalf("instruction %d lost on %s, victim is %s", id, got, victim)
		}
	}
	// Work that finished before the failure stays finished.
	if ex.Completed == 0 {
		t.Fatal("no instruction completed before the failure instant")
	}
}

// TestCutAtFreezesClock cuts a healthy execution at an event instant: no
// instruction starts at or after the cut, in-flight work completes, and
// the remainder is classified blocked (not a deadlock error).
func TestCutAtFreezesClock(t *testing.T) {
	p := compile1F1B(t, schedule.Shape{DP: 2, PP: 3, MB: 6, Iter: 1})
	full, err := ExecuteProgram(p, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.Makespan / 2
	ex, err := ExecuteProgram(p, ProgramOptions{CutAt: cut})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Completed == 0 || ex.Completed == len(p.Instrs) {
		t.Fatalf("cut execution completed %d of %d instructions", ex.Completed, len(p.Instrs))
	}
	for i := range p.Instrs {
		if ex.Start[i] >= 0 && ex.Start[i] >= cut {
			t.Fatalf("instruction %d started at %d, at/after the cut %d", i, ex.Start[i], cut)
		}
	}
	if len(ex.Lost) != 0 {
		t.Fatalf("cut execution lost %d instructions; none should be lost without a failure", len(ex.Lost))
	}
	if got := ex.Completed + len(ex.Blocked); got != len(p.Instrs) {
		t.Fatalf("completed (%d) + blocked (%d) != %d instructions", ex.Completed, len(ex.Blocked), len(p.Instrs))
	}
}

// TestDonePrefixResumes resumes a cut execution: the completed prefix is
// handed back via Done, release floors delay the suffix to the event
// instant, and the combined timeline completes every instruction exactly
// once, never dipping a suffix start below the floor.
func TestDonePrefixResumes(t *testing.T) {
	p := compile1F1B(t, schedule.Shape{DP: 2, PP: 3, MB: 6, Iter: 1})
	full, err := ExecuteProgram(p, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.Makespan / 2
	head, err := ExecuteProgram(p, ProgramOptions{CutAt: cut})
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[int]int64)
	for i := range p.Instrs {
		if head.End[i] >= 0 {
			done[i] = head.End[i]
		}
	}
	release := make(map[schedule.Worker]int64)
	for _, w := range p.Workers() {
		release[w] = cut
	}
	tail, err := ExecuteProgram(p, ProgramOptions{Done: done, ReleaseAt: release})
	if err != nil {
		t.Fatal(err)
	}
	if tail.Completed != len(p.Instrs) {
		t.Fatalf("resumed execution completed %d of %d instructions", tail.Completed, len(p.Instrs))
	}
	for i := range p.Instrs {
		if end, ok := done[i]; ok {
			if tail.End[i] != end {
				t.Fatalf("prefix instruction %d re-timed: end %d, recorded %d", i, tail.End[i], end)
			}
			continue
		}
		if tail.Start[i] < cut {
			t.Fatalf("suffix instruction %d started at %d, before the release floor %d", i, tail.Start[i], cut)
		}
	}
	// A Done set that is not a stream prefix is rejected.
	bad := map[int]int64{int(p.Stream(p.Workers()[0])[1]): 5}
	if _, err := ExecuteProgram(p, ProgramOptions{Done: bad}); err == nil {
		t.Fatal("mid-stream done set was not rejected")
	}
}

// TestFrozenSpansInInstructionOrder pins the order a resumed execution
// records its frozen prefix in: two cut-then-resume executions of the same
// Program, each into its own flight recorder, record the same lines.
func TestFrozenSpansInInstructionOrder(t *testing.T) {
	p := compile1F1B(t, schedule.Shape{DP: 3, PP: 4, MB: 6, Iter: 1})
	var got [2][]string
	for i := range got {
		head, err := ExecuteProgram(p, ProgramOptions{CutAt: 15})
		if err != nil {
			t.Fatal(err)
		}
		done := make(map[int]int64)
		for id := range p.Instrs {
			if head.End[id] >= 0 {
				done[id] = head.End[id]
			}
		}
		fl := obs.NewFlightRecorder(0)
		if _, err := ExecuteProgram(p, ProgramOptions{Done: done, Recorder: fl}); err != nil {
			t.Fatal(err)
		}
		got[i] = fl.Records()
	}
	if !slices.Equal(got[0], got[1]) {
		t.Fatalf("two resumed executions recorded different lines:\n%q\n%q", got[0], got[1])
	}
}

// TestExecuteChargesCommLatency checks the edge rule: every cross-stage
// forward starts no earlier than its upstream forward's end plus Comm, and
// the first one exactly then.
func TestExecuteChargesCommLatency(t *testing.T) {
	d := schedule.Durations{F: 2, BInput: 3, BWeight: 1, Opt: 1, Comm: 5}
	p, err := schedule.Compile(schedule.FaultFree1F1B(schedule.Shape{DP: 1, PP: 2, MB: 2, Iter: 1}, d))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := ExecuteProgram(p, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Instrs {
		for _, dep := range p.Deps(i) {
			if dep.Kind != schedule.DepActivation {
				continue
			}
			if got, min := ex.Start[i], ex.End[dep.From]+d.Comm; got < min {
				t.Fatalf("%s starts at %d, before its activation lands at %d", p.Op(i), got, min)
			}
		}
	}
	first := p.Stream(schedule.Worker{Stage: 1})[0]
	if got := ex.Start[first]; got != d.F+d.Comm {
		t.Fatalf("stage 1's first forward starts at %d, want %d", got, d.F+d.Comm)
	}
}

// TestExecuteAllocationBudget pins what an execution allocates: the
// Execution and its two span arrays, plus the Lost and Blocked lists of a
// cut execution with a kill — the walk and the death instants are pooled
// scratch, and a straggler's view is built before the measured runs.
func TestExecuteAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	p := compile1F1B(t, schedule.Shape{DP: 4, PP: 4, MB: 8, Iter: 1})
	full, err := ExecuteProgram(p, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.Makespan / 2
	for _, c := range []struct {
		name   string
		prog   *schedule.Program
		opt    ProgramOptions
		budget float64
	}{
		{"healthy", p, ProgramOptions{}, 3},
		{"straggler", straggle(t, p, schedule.Worker{Stage: 1, Pipeline: 2}, 2), ProgramOptions{}, 3},
		{"cut with a kill", p, ProgramOptions{CutAt: cut, FailAt: map[schedule.Worker]int64{{Stage: 2, Pipeline: 1}: cut}}, 5},
	} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := ExecuteProgram(c.prog, c.opt); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("%s: an execution of %d instructions allocates %.0f objects, budget %.0f", c.name, len(p.Instrs), got, c.budget)
		}
	}
}

// TestDeadlockDetected checks that a cyclic program is reported instead of
// spinning or silently under-executing: stage 1's first forward has its
// activation edge re-pointed at the last instruction of its own stream.
func TestDeadlockDetected(t *testing.T) {
	p, err := schedule.Compile(schedule.FaultFree1F1B(schedule.Shape{DP: 1, PP: 2, MB: 2, Iter: 1}, schedule.UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stream(schedule.Worker{Stage: 1})
	p.Deps(int(s[0]))[0].From = s[len(s)-1]
	if _, err := ExecuteProgram(p, ProgramOptions{}); err == nil {
		t.Fatal("expected a deadlock error for a cyclic program")
	}
}
