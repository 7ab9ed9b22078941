package replay

import (
	"fmt"
	"slices"
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
		op := prog.Op(i)
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
		op := prog.Op(i)
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
	for i := range lv.Program.Instrs {
		if op := lv.Program.Op(i); op.Type == schedule.Optimizer && op.Worker() == victim {
			if end := lv.Exec.End[i]; end > cut {
				t.Errorf("victim's durable step re-placed to end at %d, after the cut %d", end, cut)
			}
			frozen = true
		}
	}
	if !frozen {
		t.Error("victim's durable step vanished from the spliced program")
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

// frozenStepsUngated requires the gating rule of a spliced Program: a step
// of the frozen prefix — done, and ended by the cut — is ungated, as it
// carried no edges before the barrier; every other step is gated. It
// returns the frozen steps.
func frozenStepsUngated(t *testing.T, what string, spl *Spliced, cut int64) []int {
	t.Helper()
	var frozen []int
	p := spl.Program
	for i := range p.Instrs {
		if p.Op(i).Type != schedule.Optimizer {
			continue
		}
		end, done := spl.Done[i]
		if f := done && end <= cut; p.Gated(i) == f {
			t.Fatalf("%s: %s frozen=%v gated=%v", what, p.Op(i), f, p.Gated(i))
		} else if f {
			frozen = append(frozen, i)
		}
	}
	return frozen
}

// cutInput cuts prog at in.Cut — resuming from done and floors, the
// event's victims dying there — and fills in the program and its executed
// spans.
func cutInput(t *testing.T, prog *schedule.Program, done map[int]int64, floors map[schedule.Worker]int64, in SpliceInput) SpliceInput {
	t.Helper()
	opt := sim.ProgramOptions{CutAt: in.Cut, Done: done, ReleaseAt: floors, FailAt: map[schedule.Worker]int64{}}
	for _, w := range in.Fail {
		opt.FailAt[w] = in.Cut
	}
	cutEx, err := sim.ExecuteProgram(prog, opt)
	if err != nil {
		t.Fatal(err)
	}
	in.Prog, in.Starts, in.Ends = prog, cutEx.Start, cutEx.End
	return in
}

// TestFrozenOptimizerIsNotGated pins the optimizers the barrier leaves
// alone. Every first and second kill of a small iteration yields spliced
// Programs whose frozen steps are ungated and whose other steps are gated,
// and each second splice equals the reference's field by field.
//
// A cascade reads the rule once release floors have staggered a stage
// group's steps: in a chain of two re-joins and a kill, the second re-join
// lands between the group's steps and freezes the first of them, and the
// kill then loses the victim's contributions to the unfinished group.
// Ungated, the frozen step stays in the prefix, ahead of its re-executed
// gradients, and the splice is rejected exactly as the reference rejects
// it; gated, the step would be lost and re-executed — a splice the
// reference never makes.
func TestFrozenOptimizerIsNotGated(t *testing.T) {
	var tally diffTally
	for _, decoupled := range []bool{true, false} {
		prog := mustProgram(t, diffEngine(3, 2, 4, decoupled, false), nil)
		full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v1 := range prog.Workers() {
			for c1 := int64(1); c1 < full.Makespan; c1++ {
				what := fmt.Sprintf("decoupled=%v %s killed at %d", decoupled, v1, c1)
				first := sameSplice(t, &tally, what, cutInput(t, prog, nil, nil, SpliceInput{Cut: c1, Fail: []schedule.Worker{v1}}))
				if first == nil || len(frozenStepsUngated(t, what, first, c1)) == 0 {
					continue
				}
				for c2 := c1 + 1; c2 < first.Exec.Makespan; c2++ {
					for _, v2 := range first.Program.Workers() {
						at := fmt.Sprintf("%s, then %s at %d", what, v2, c2)
						in := cutInput(t, first.Program, first.Done, first.Floors, SpliceInput{Cut: c2, Fail: []schedule.Worker{v2}})
						if second := sameSplice(t, &tally, at, in); second != nil {
							frozenStepsUngated(t, at, second, c2)
						}
					}
				}
			}
		}
	}
	if tally.spliced < 500 {
		t.Fatalf("only %d splices: the sweep no longer reaches the cascades", tally.spliced)
	}

	// The chain: the other stage runs on W0 alone, and stage s steps first,
	// every step at the instant its last weight gradient lands.
	eng := diffEngine(3, 2, 4, true, false)
	s, _ := epilogueCut(t, mustProgram(t, eng, nil))
	w := func(pipeline, stage int) schedule.Worker { return schedule.Worker{Stage: stage, Pipeline: pipeline} }
	prog := mustProgram(t, eng, map[schedule.Worker]bool{w(1, 1-s): true, w(2, 1-s): true})
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c1 := full.Makespan
	for i := range prog.Instrs {
		if op := prog.Op(i); op.Type == schedule.Optimizer && op.Stage == s {
			c1 = min(c1, full.Start[i])
		}
	}
	// Stage s's pipeline k is released k slots after c1, so its steps fire
	// one slot apart.
	stagger := make(map[schedule.Worker]int64)
	for k := 0; k < 3; k++ {
		stagger[w(k, s)] = c1 + int64(k)
	}
	first := sameSplice(t, &tally, "re-join 1", cutInput(t, prog, nil, nil, SpliceInput{Cut: c1, Rejoin: []schedule.Worker{w(1, 1-s)}, Release: stagger}))
	if first == nil {
		t.Fatal("the first re-join was rejected")
	}
	c2 := c1 + 1
	second := sameSplice(t, &tally, "re-join 2", cutInput(t, first.Program, first.Done, first.Floors, SpliceInput{Cut: c2, Rejoin: []schedule.Worker{w(2, 1-s)}, Release: stagger}))
	if second == nil {
		t.Fatal("the second re-join was rejected")
	}
	frozen := frozenStepsUngated(t, "re-join 2", second, c2)
	if len(frozen) != 1 || second.Program.Op(frozen[0]).Worker() != w(0, s) {
		t.Fatalf("the second re-join froze steps %v, want %s's alone", frozen, w(0, s))
	}
	kill := cutInput(t, second.Program, second.Done, second.Floors, SpliceInput{Cut: c2 + 1, Fail: []schedule.Worker{w(2, s)}})
	if third := sameSplice(t, &tally, "kill", kill); third != nil {
		t.Fatal("the kill was accepted: the frozen step no longer precedes re-executed gradients")
	}
	if _, err := Splice(kill); err == nil || !strings.Contains(err.Error(), "all-reduce is ready") {
		t.Fatalf("the kill was rejected for another reason: %v", err)
	}
	kill.Prog = rebuild(t, second.Program, second.Program.Deps, func(i int) bool { return second.Program.Type(i) == schedule.Optimizer })
	if alt, err := Splice(kill); err != nil || !slices.Contains(alt.LostIDs, frozen[0]) {
		t.Fatalf("gating every step did not re-execute the frozen one: %v", err)
	}
}

// TestStraddlingCutIsALiveOnlyRejection pins the one difference between
// the two callers of the cut-and-splice routine: a cut that splits a
// stage's optimizer group (the victim's in-flight step dies, its peer's
// completes) cannot be interpreted live — the group is not durable, so its
// lost work may be re-executed on the peer that already stepped, with
// post-step parameters — so LiveSplice rejects it, while the trace
// replayer, which computes nothing, splices through it.
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
