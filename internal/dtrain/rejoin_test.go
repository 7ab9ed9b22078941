package dtrain

import (
	"testing"

	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// TestRejoinMidIterationResumesBeforeBoundary drives the live-runtime half
// of the splice path: a failed worker re-joins in the middle of a running
// iteration, picks up re-planned micro-batches and its stage's optimizer
// step before the boundary, and the training math stays bitwise identical
// to a fault-free run — the acceptance scenario for mid-iteration re-join.
func TestRejoinMidIterationResumesBeforeBoundary(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5,
		Seed: 21, LR: 1e-2,
	}
	rt := New(cfg)
	ref := New(cfg)
	w := schedule.Worker{Stage: 1, Pipeline: 2}

	rt.Fail(w)
	lossAdapted, err := rt.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	lossRef0, err := ref.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if lossAdapted != lossRef0 {
		t.Fatalf("adapted loss %v != fault-free %v", lossAdapted, lossRef0)
	}

	// The boundary the re-join must beat: the failed-set program's own
	// virtual-clock makespan.
	prog, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.ComputeMakespan(0) / 3

	loss, err := rt.RunIteration(CascadeEvent{Cut: cut, Rejoin: []schedule.Worker{w}})
	if err != nil {
		t.Fatal(err)
	}
	lossRef1, err := ref.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if loss != lossRef1 {
		t.Fatalf("spliced-iteration loss %v != fault-free %v (training math must be bitwise preserved)", loss, lossRef1)
	}
	if rt.FailedCount() != 0 {
		t.Fatalf("%d workers still failed after the re-join", rt.FailedCount())
	}

	// The executed timeline is the spliced Program — validated, and with
	// the repaired worker computing (and stepping) before the boundary.
	spliced, starts, ends := rt.ExecutedTimeline()
	if spliced == nil || len(spliced.Instrs) == 0 {
		t.Fatal("no executed timeline recorded")
	}
	if err := spliced.Validate(); err != nil {
		t.Fatalf("spliced program invalid: %v", err)
	}
	var wOps, wOpt int
	var firstStart int64 = -1
	for i := range spliced.Instrs {
		op := spliced.Op(i)
		if op.Worker() != w || ends[i] < 0 {
			continue
		}
		wOps++
		if op.Type == schedule.Optimizer {
			wOpt++
		}
		if firstStart < 0 || starts[i] < firstStart {
			firstStart = starts[i]
		}
	}
	if wOps == 0 {
		t.Fatal("re-joined worker executed nothing in the spliced iteration")
	}
	if wOpt != 1 {
		t.Fatalf("re-joined worker applied %d optimizer steps, want 1", wOpt)
	}
	if firstStart >= full.Makespan {
		t.Fatalf("re-joined worker started at slot %d, not before the iteration boundary %d", firstStart, full.Makespan)
	}
	if firstStart < cut {
		t.Fatalf("re-joined worker started at slot %d, before the event instant %d", firstStart, cut)
	}

	// The next iteration runs healthy on the full fleet, still bitwise
	// equal to the reference.
	loss2, err := rt.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	lossRef2, err := ref.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if loss2 != lossRef2 {
		t.Fatalf("post-re-join loss %v != fault-free %v", loss2, lossRef2)
	}
}

// TestRejoinAllReduceNeverSplits pins the invariant LiveSplice's
// rendezvous guard defends (and why it cannot trip on single-iteration
// programs): a stage's optimizer steps all gate on the same all-reduce
// barrier, so for every possible cut they land on one side of the event
// together — no phase-1 root can block on a phase-2 contribution. The
// splice path works at any cut inside the compute span.
func TestRejoinAllReduceNeverSplits(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 6, Hidden: 8, OutDim: 4, MicroBatchSize: 3,
		Seed: 3, LR: 1e-2,
	}
	rt := New(cfg)
	w := schedule.Worker{Stage: 2, Pipeline: 1}
	rt.Fail(w)
	prog, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	type stageIter struct{ iter, stage int }
	for cut := int64(1); cut <= full.Makespan; cut += 3 {
		cutEx, err := sim.ExecuteProgram(prog, sim.ProgramOptions{CutAt: cut})
		if err != nil {
			t.Fatal(err)
		}
		done, pending := map[stageIter]bool{}, map[stageIter]bool{}
		for i := range prog.Instrs {
			op := prog.Op(i)
			if op.Type != schedule.Optimizer {
				continue
			}
			k := stageIter{op.Iter, op.Stage}
			if cutEx.End[i] >= 0 {
				done[k] = true
			} else {
				pending[k] = true
			}
		}
		for k := range done {
			if pending[k] {
				t.Fatalf("cut %d splits stage %d's optimizer across the event", cut, k.stage)
			}
		}
	}
	// Degenerate inputs are rejected up front.
	if _, err := rt.RunIteration(CascadeEvent{Cut: 0, Rejoin: []schedule.Worker{w}}); err == nil {
		t.Fatal("cut slot 0 was accepted")
	}
	if _, err := rt.RunIteration(CascadeEvent{Cut: 5, Rejoin: []schedule.Worker{{Stage: 0, Pipeline: 0}}}); err == nil {
		t.Fatal("re-joining a live worker was accepted")
	}
	if rt.FailedCount() != 1 {
		t.Fatalf("rejected calls mutated the failure set: %d failed", rt.FailedCount())
	}
}
