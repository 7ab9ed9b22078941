package replay

import (
	"strings"
	"testing"
	"time"

	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// epilogueCut returns the instant the earliest stage's optimizer group
// completes in a fault-free execution of prog, and that stage: its step is
// durable at the cut while the other stages' work is still in flight.
func epilogueCut(t *testing.T, prog *schedule.Program) (stage int, cut int64) {
	t.Helper()
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	groupEnd := map[int]int64{}
	for i := range prog.Instrs {
		op := prog.Instrs[i].Op
		if op.Type != schedule.Optimizer {
			continue
		}
		if e := full.End[i]; e > groupEnd[op.Stage] {
			groupEnd[op.Stage] = e
		}
	}
	stage = -1
	for s, e := range groupEnd {
		if stage < 0 || e < cut {
			stage, cut = s, e
		}
	}
	if cut >= full.Makespan {
		t.Fatalf("cut %d is not mid-iteration (makespan %d)", cut, full.Makespan)
	}
	return stage, cut
}

// TestLiveSpliceDurableEpilogueKill cuts a healthy iteration inside the
// all-reduce epilogue — after one stage's optimizer group has fully
// completed but before the iteration drains — with a victim in the stepped
// stage. Steps are durable, so the kill must succeed, the victim's applied
// step must stay frozen at its executed time instead of joining the lost
// cascade, and no instruction of the stepped group may be re-executed.
func TestLiveSpliceDurableEpilogueKill(t *testing.T) {
	job, stats := engine.ShapeJob(2, 2, 4)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	prog := mustProgram(t, eng, nil)
	stage, cut := epilogueCut(t, prog)
	victim := schedule.Worker{Stage: stage, Pipeline: 1}
	var steppedOpt []int // the stepped group's instruction IDs
	victimOpt := -1
	for i := range prog.Instrs {
		op := prog.Instrs[i].Op
		if op.Type == schedule.Optimizer && op.Stage == stage {
			steppedOpt = append(steppedOpt, i)
			if op.Worker() == victim {
				victimOpt = i
			}
		}
	}
	if victimOpt < 0 {
		t.Fatal("victim has no optimizer instruction")
	}

	lv, err := LiveSplice(LiveEvent{Prog: prog, Cut: cut, Fail: []schedule.Worker{victim}})
	if err != nil {
		t.Fatalf("epilogue-cut LiveSplice: %v", err)
	}
	if !lv.Failed[victim] {
		t.Fatal("victim not in the post-event failed set")
	}
	lost := make(map[int]bool, len(lv.LostIDs))
	for _, id := range lv.LostIDs {
		lost[id] = true
	}
	for _, id := range steppedOpt {
		if lost[id] {
			t.Errorf("stepped group's optimizer instr %d joined the lost cascade under durable steps", id)
		}
	}
	// The victim's applied step stays frozen at its executed time, even
	// though the victim is failed after the event.
	frozen := false
	for _, p := range lv.Schedule.Placements {
		if p.Op.Type == schedule.Optimizer && p.Op.Worker() == victim {
			if p.End > cut {
				t.Errorf("victim's durable step re-placed to end at %d, after the cut %d", p.End, cut)
			}
			frozen = true
		}
	}
	if !frozen {
		t.Error("victim's durable step vanished from the spliced schedule")
	}
}

// TestReplaySplicesLikeLiveSplice pins "one rule": a trace whose failure
// lands on an epilogue instant — the victim's stage already stepped — must
// yield the event the live runtime's splice of the same (program, cut,
// victim) produces. A replayer that re-executed the durable step would lose
// and re-plan more ops than LiveSplice does.
func TestReplaySplicesLikeLiveSplice(t *testing.T) {
	job, stats := engine.ShapeJob(2, 2, 4)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	prog := mustProgram(t, eng, nil)
	stage, cut := epilogueCut(t, prog)
	victim := schedule.Worker{Stage: stage, Pipeline: 1}
	pp := job.Parallel.PP
	machine := victim.Pipeline*pp + victim.Stage
	if MachineWorker(machine, pp) != victim {
		t.Fatalf("machine %d does not host %s", machine, victim)
	}

	lv, err := LiveSplice(LiveEvent{Prog: prog, Cut: cut, Fail: []schedule.Worker{victim}})
	if err != nil {
		t.Fatal(err)
	}
	// The unit-cost job runs one slot per second, so the trace instant is
	// the cut.
	tr := failure.Trace{Name: "epilogue-kill", Total: 4, Steps: []failure.Step{
		{At: 0, Available: 4},
		{At: time.Duration(cut) * time.Second, Available: 3, Failed: []int{machine}},
	}}
	res, err := Replay(eng, tr, Options{Horizon: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || !res.Events[0].ResumedMidIteration {
		t.Fatalf("want one mid-iteration event, got %+v", res.Events)
	}
	ev := res.Events[0]
	if ev.LostOps != lv.LostOps || ev.ReplannedOps != lv.SuffixOps || ev.MigratedTriples != lv.MigratedTriples {
		t.Fatalf("offline replay lost/re-planned/migrated %d/%d/%d, LiveSplice %d/%d/%d",
			ev.LostOps, ev.ReplannedOps, ev.MigratedTriples, lv.LostOps, lv.SuffixOps, lv.MigratedTriples)
	}
}

// TestStraddlingCutIsALiveOnlyRejection pins the one difference between
// the two callers of the cut-and-splice routine: a cut that splits a
// stage's optimizer group (the victim's in-flight step dies, its peer's
// completes) cannot be interpreted live — a phase-1 all-reduce root would
// wait on a phase-2 contribution — so LiveSplice rejects it, while the
// trace replayer, which interprets nothing, splices through it.
func TestStraddlingCutIsALiveOnlyRejection(t *testing.T) {
	job, stats := engine.ShapeJob(2, 2, 4)
	stats.TOpt = 2 // a two-slot step has an interior instant to cut at
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	prog := mustProgram(t, eng, nil)
	stage, end := epilogueCut(t, prog)
	cut := end - 1
	victim := schedule.Worker{Stage: stage, Pipeline: 1}
	pp := job.Parallel.PP

	if _, err := LiveSplice(LiveEvent{Prog: prog, Cut: cut, Fail: []schedule.Worker{victim}}); err == nil ||
		!strings.Contains(err.Error(), "splits stage") {
		t.Fatalf("LiveSplice did not reject the straddling cut %d: %v", cut, err)
	}
	tr := failure.Trace{Name: "straddle", Total: 4, Steps: []failure.Step{
		{At: 0, Available: 4},
		{At: time.Duration(cut) * time.Second, Available: 3, Failed: []int{victim.Pipeline*pp + victim.Stage}},
	}}
	res, err := Replay(eng, tr, Options{Horizon: time.Minute})
	if err != nil {
		t.Fatalf("offline replay rejected the straddling cut %d: %v", cut, err)
	}
	if len(res.Events) != 1 || !res.Events[0].ResumedMidIteration {
		t.Fatalf("want one mid-iteration event, got %+v", res.Events)
	}
}
