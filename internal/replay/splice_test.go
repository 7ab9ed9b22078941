package replay

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// computeKey is an op's identity independent of where it executes.
type computeKey struct {
	iter, stage, mb, home int
	typ                   schedule.OpType
}

// computeCensus counts compute ops by identity.
func computeCensus(p *schedule.Program) map[computeKey]int {
	out := make(map[computeKey]int)
	for i := range p.Instrs {
		op := p.Op(i)
		if op.Type == schedule.Optimizer {
			continue
		}
		out[computeKey{op.Iter, op.Stage, op.MB, op.Home, op.Type}]++
	}
	return out
}

func mustProgram(t *testing.T, eng *engine.Engine, failed map[schedule.Worker]bool) *schedule.Program {
	t.Helper()
	p, err := eng.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSpliceFailureMidIteration cuts a healthy 3x4x6 iteration when a
// stage-2 worker dies: the victim's completed work (and its completed
// dependents) is re-executed on live peers, nothing lands on the victim,
// every micro-batch survives, and the spliced artifact validates.
func TestSpliceFailureMidIteration(t *testing.T) {
	job, stats := engine.ShapeJob(3, 4, 6)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	prog := mustProgram(t, eng, nil)
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	victim := schedule.Worker{Stage: 2, Pipeline: 1}
	cut := full.Makespan / 2
	cutEx, err := sim.ExecuteProgram(prog, sim.ProgramOptions{
		CutAt:  cut,
		FailAt: map[schedule.Worker]int64{victim: cut},
	})
	if err != nil {
		t.Fatal(err)
	}
	spl, err := Splice(SpliceInput{
		Prog: prog, Starts: cutEx.Start, Ends: cutEx.End,
		Cut: cut, Fail: []schedule.Worker{victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spl.LostOps == 0 || spl.LostSlots == 0 {
		t.Fatalf("victim worked before the cut yet no completed work was discarded: %+v", spl)
	}
	if spl.PrefixOps == 0 {
		t.Fatal("no executed prefix survived a mid-iteration cut")
	}
	for i := range spl.Program.Instrs {
		if op := spl.Program.Op(i); op.Worker() == victim {
			t.Fatalf("spliced program still places %s on the dead worker", op)
		}
	}
	// The dead worker's optimizer is dropped; everyone else still steps.
	if got, want := spl.Program.OpCount(schedule.Optimizer), prog.OpCount(schedule.Optimizer)-1; got != want {
		t.Fatalf("spliced program has %d optimizer steps, want %d", got, want)
	}
	// Every micro-batch's compute survives with the same op identities.
	if got, want := computeCensus(spl.Program), computeCensus(prog); len(got) != len(want) {
		t.Fatalf("compute census changed: %d identities vs %d", len(got), len(want))
	} else {
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("op %+v appears %d times in the splice, want %d", k, got[k], n)
			}
		}
	}
	// Resumption completes everything exactly once, after the cut.
	res, err := sim.ExecuteProgram(spl.Program, sim.ProgramOptions{Done: spl.Done, ReleaseAt: spl.Floors})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(spl.Program.Instrs) {
		t.Fatalf("resumption completed %d of %d instructions", res.Completed, len(spl.Program.Instrs))
	}
	for id, end := range spl.Done {
		if res.End[id] != end {
			t.Fatalf("prefix instruction %d re-executed: end %d, recorded %d", id, res.End[id], end)
		}
	}
}

// TestSpliceRejoinResumesBeforeBoundary re-joins a failed worker
// mid-iteration: the spliced program assigns it real work (including its
// optimizer step) starting before the iteration boundary it would
// otherwise have waited for.
func TestSpliceRejoinResumesBeforeBoundary(t *testing.T) {
	job, stats := engine.ShapeJob(3, 4, 6)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	w := schedule.Worker{Stage: 1, Pipeline: 2}
	failed := map[schedule.Worker]bool{w: true}
	prog := mustProgram(t, eng, failed)
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.Makespan / 3
	cutEx, err := sim.ExecuteProgram(prog, sim.ProgramOptions{CutAt: cut})
	if err != nil {
		t.Fatal(err)
	}
	spl, err := Splice(SpliceInput{
		Prog: prog, Starts: cutEx.Start, Ends: cutEx.End,
		Cut: cut, Rejoin: []schedule.Worker{w},
	})
	if err != nil {
		t.Fatal(err)
	}
	if spl.Failed[w] {
		t.Fatal("re-joined worker still marked failed in the splice")
	}
	var wOps, wOpt int
	var firstStart int64 = -1
	for i := range spl.Program.Instrs {
		op := spl.Program.Op(i)
		if op.Worker() != w {
			continue
		}
		wOps++
		if op.Type == schedule.Optimizer {
			wOpt++
		}
		if start := spl.Exec.Start[i]; firstStart < 0 || start < firstStart {
			firstStart = start
		}
	}
	if wOps == 0 {
		t.Fatal("re-joined worker received no work mid-iteration")
	}
	if wOpt != 1 {
		t.Fatalf("re-joined worker has %d optimizer steps, want 1 (its stage's all-reduce had not fired)", wOpt)
	}
	if firstStart >= full.Makespan {
		t.Fatalf("re-joined worker starts at %d, not before the iteration boundary %d", firstStart, full.Makespan)
	}
	if firstStart < cut {
		t.Fatalf("re-joined worker starts at %d, before the event instant %d", firstStart, cut)
	}
	// The splice must not shrink total optimizer participation: the old
	// program stepped DP-1 peers per stage at w's stage, the splice steps
	// DP there.
	if got, want := spl.Program.OpCount(schedule.Optimizer), prog.OpCount(schedule.Optimizer)+1; got != want {
		t.Fatalf("spliced program has %d optimizer steps, want %d", got, want)
	}
	res, err := sim.ExecuteProgram(spl.Program, sim.ProgramOptions{Done: spl.Done, ReleaseAt: spl.Floors})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(spl.Program.Instrs) {
		t.Fatalf("resumption completed %d of %d instructions", res.Completed, len(spl.Program.Instrs))
	}
}

// TestSpliceProperty is the splice-correctness property test: across
// random shapes, cut instants and event kinds, a suffix-re-planned
// Program never loses a micro-batch, never double-executes a completed
// instruction, runs a timeline that keeps every dependency (checkTimeline)
// and resumes to completion.
func TestSpliceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{{2, 2, 4}, {3, 4, 6}, {2, 3, 5}, {4, 2, 6}}
	for trial := 0; trial < 48; trial++ {
		sh := shapes[trial%len(shapes)]
		dp, pp, mb := sh[0], sh[1], sh[2]
		job, stats := engine.ShapeJob(dp, pp, mb)
		eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})

		failed := make(map[schedule.Worker]bool)
		var downed []schedule.Worker
		if dp > 1 && rng.Intn(2) == 1 {
			w := schedule.Worker{Stage: rng.Intn(pp), Pipeline: rng.Intn(dp)}
			failed[w] = true
			downed = append(downed, w)
		}
		prog := mustProgram(t, eng, failed)
		full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
		if err != nil {
			t.Fatal(err)
		}
		cut := 1 + rng.Int63n(full.Makespan)

		var fail, rejoin []schedule.Worker
		if len(downed) > 0 && rng.Intn(2) == 1 {
			rejoin = downed
		} else {
			// Fail a live worker whose stage keeps a live peer.
			for tries := 0; tries < 50; tries++ {
				w := schedule.Worker{Stage: rng.Intn(pp), Pipeline: rng.Intn(dp)}
				if failed[w] {
					continue
				}
				live := 0
				for k := 0; k < dp; k++ {
					if !failed[schedule.Worker{Stage: w.Stage, Pipeline: k}] {
						live++
					}
				}
				if live >= 2 {
					fail = []schedule.Worker{w}
					break
				}
			}
			if fail == nil {
				continue
			}
		}
		cutOpts := sim.ProgramOptions{CutAt: cut}
		for _, w := range fail {
			if cutOpts.FailAt == nil {
				cutOpts.FailAt = map[schedule.Worker]int64{}
			}
			cutOpts.FailAt[w] = cut
		}
		cutEx, err := sim.ExecuteProgram(prog, cutOpts)
		if err != nil {
			t.Fatal(err)
		}
		spl, err := Splice(SpliceInput{
			Prog: prog, Starts: cutEx.Start, Ends: cutEx.End,
			Cut: cut, Fail: fail, Rejoin: rejoin,
		})
		if err != nil {
			t.Fatalf("trial %d (shape %v cut %d fail %v rejoin %v): %v", trial, sh, cut, fail, rejoin, err)
		}
		// 1. Check the splice's timeline independently of the walk that
		// made it, and the Program's structure.
		checkTimeline(t, fmt.Sprintf("trial %d", trial), spl, cut)
		if err := spl.Program.Validate(); err != nil {
			t.Fatalf("trial %d: spliced program invalid: %v", trial, err)
		}
		// 2. No micro-batch lost: compute-op identities are preserved
		// exactly (Exec may move, identity may not).
		want := computeCensus(prog)
		got := computeCensus(spl.Program)
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("trial %d: op %+v count %d, want %d", trial, k, got[k], n)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Fatalf("trial %d: splice invented op %+v", trial, k)
			}
		}
		// 3. No double execution, full completion on resumption.
		res, err := sim.ExecuteProgram(spl.Program, sim.ProgramOptions{Done: spl.Done, ReleaseAt: spl.Floors})
		if err != nil {
			t.Fatalf("trial %d: resumption failed: %v", trial, err)
		}
		if res.Completed != len(spl.Program.Instrs) {
			t.Fatalf("trial %d: resumption completed %d of %d", trial, res.Completed, len(spl.Program.Instrs))
		}
		// The splice times its Program on the walk directly: its timeline
		// must be the one the executors' walk gives.
		if ex := spl.Exec; !slices.Equal(ex.Start, res.Start) || !slices.Equal(ex.End, res.End) || ex.Makespan != res.Makespan || ex.Completed != res.Completed {
			t.Fatalf("trial %d: the splice's timeline (makespan %d, %d completed) is not sim.ExecuteProgram's (makespan %d, %d completed)",
				trial, ex.Makespan, ex.Completed, res.Makespan, res.Completed)
		}
		for id, end := range spl.Done {
			if res.End[id] != end || res.Start[id] != end-spl.Program.DurOf(id) {
				t.Fatalf("trial %d: prefix instruction %d re-timed", trial, id)
			}
		}
		for i := range spl.Program.Instrs {
			if _, isDone := spl.Done[i]; !isDone && res.Start[i] < cut {
				t.Fatalf("trial %d: re-planned instruction %d started at %d, before the event %d", trial, i, res.Start[i], cut)
			}
		}
	}
}

// checkTimeline asserts, on the splice's own timeline, what a valid
// schedule promises: every instruction ran for its duration; none ran on a
// failed worker past the cut (a victim keeps only its durable pre-cut
// work); each worker runs its stream in order, one instruction at a time;
// no kept instruction waits on a re-planned one; and no re-planned
// instruction starts before its producers end plus their edge latency or,
// for a gated step, before its group's weight gradients end.
func checkTimeline(t *testing.T, what string, spl *Spliced, cut int64) {
	t.Helper()
	p, ex := spl.Program, spl.Exec
	if ex.Completed != len(p.Instrs) {
		t.Fatalf("%s: the splice ran %d of %d instructions", what, ex.Completed, len(p.Instrs))
	}
	for _, w := range p.Workers() {
		free := int64(0)
		for _, id := range p.Stream(w) {
			op, start, end := p.Op(int(id)), ex.Start[id], ex.End[id]
			if end-start != p.DurOf(int(id)) {
				t.Fatalf("%s: %s runs [%d,%d), not its duration %d", what, op, start, end, p.DurOf(int(id)))
			}
			if spl.Failed[w] && end > cut {
				t.Fatalf("%s: %s runs on failed %s until %d, past the cut %d", what, op, w, end, cut)
			}
			if start < free {
				t.Fatalf("%s: %s starts at %d, before %s is free at %d", what, op, start, w, free)
			}
			free = end
			if _, done := spl.Done[int(id)]; done {
				// Kept work waits on nothing re-planned: a producer lost
				// and re-run after the cut can close a cycle in the
				// Program that the splice's resumed walk, which installs
				// the prefix, cannot see.
				for _, d := range p.Producers(int(id)) {
					if _, kept := spl.Done[int(d.From)]; !kept {
						t.Fatalf("%s: kept %s waits on re-planned %s", what, op, p.Op(int(d.From)))
					}
				}
				continue
			}
			for _, d := range p.Producers(int(id)) {
				if ready := ex.End[d.From] + p.EdgeLatency(d.Kind); start < ready {
					t.Fatalf("%s: %s starts at %d, before its %v producer %s is ready at %d", what, op, start, d.Kind, p.Op(int(d.From)), ready)
				}
			}
		}
	}
}

// TestSpliceRejectsInTimelineOrder hands Splice two kept spans that each
// last a slot longer than their cost: a late one on W0_0 and an early one
// on W1_0. A spliced Program's streams are emitted worker by worker, so
// W0_0's offender comes first in run order; the rejection names the
// offender that comes first in timeline order, W1_0's.
func TestSpliceRejectsInTimelineOrder(t *testing.T) {
	job, stats := engine.ShapeJob(2, 2, 4)
	prog := mustProgram(t, engine.New(job, stats, engine.Options{UnrollIterations: 1}), nil)
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	victim, cut := schedule.Worker{Stage: 1, Pipeline: 1}, full.Makespan/2
	in := cutInput(t, prog, nil, nil, SpliceInput{Cut: cut, Fail: []schedule.Worker{victim}})
	if _, err := Splice(in); err != nil {
		t.Fatal(err)
	}
	// early: W1_0's first instruction; late: the last instruction W0_0
	// started before it.
	w00, w10 := schedule.Worker{Stage: 0, Pipeline: 0}, schedule.Worker{Stage: 1, Pipeline: 0}
	early, late := int(prog.Stream(w10)[0]), -1
	for _, id := range prog.Stream(w00) {
		if in.Ends[id] >= 0 && in.Ends[id] <= cut {
			late = int(id)
		}
	}
	if late < 0 || in.Starts[late] <= in.Starts[early]+1 {
		t.Fatalf("W0_0 ran nothing before the cut %d later than W1_0's first instruction", cut)
	}
	starts := slices.Clone(in.Starts)
	starts[early]--
	starts[late]--
	in.Starts = starts
	_, err = Splice(in)
	want := fmt.Sprintf("replay: spliced schedule fails validation: schedule: op %s has duration %d, want %d",
		prog.Op(early), prog.DurOf(early)+1, prog.DurOf(early))
	if err == nil || err.Error() != want {
		t.Fatalf("Splice returned %v\nwant %s", err, want)
	}
}
