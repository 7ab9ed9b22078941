package solver

import (
	"math/rand"
	"testing"

	"recycle/internal/schedule"
)

// TestWarmIdenticalReturnsHintSchedule checks the fast path: re-solving
// the exact instance a hint was minted from skips the solver entirely and
// returns the hinted schedule itself (same pointer: a warm hit shares the
// hint's schedule instead of copying it).
func TestWarmIdenticalReturnsHintSchedule(t *testing.T) {
	in := Input{Shape: paperShape, Durations: schedule.UnitSlots, Failed: paperFailed, Decoupled: true, Staggered: true}
	s1, info1, err := SolveInstrumented(in)
	if err != nil {
		t.Fatal(err)
	}
	if info1.Kind != KindScratch {
		t.Fatalf("first solve kind = %v, want scratch", info1.Kind)
	}
	if info1.Hint == nil || info1.Hint.Schedule != s1 {
		t.Fatal("scratch solve did not mint a self-hint")
	}
	in.Hint = info1.Hint
	s2, info2, err := SolveInstrumented(in)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Kind != KindWarmIdentical {
		t.Fatalf("hinted identical re-solve kind = %v, want warm-identical", info2.Kind)
	}
	if s2 != s1 {
		t.Fatal("warm-identical re-solve returned a different schedule object")
	}
}

// TestStaleHintFallsBackToScratch checks that an incompatible hint (minted
// for a different victim set) is ignored: the solve degrades to scratch
// and produces the bit-identical schedule a hintless solve would.
func TestStaleHintFallsBackToScratch(t *testing.T) {
	_, info, err := SolveInstrumented(Input{Shape: paperShape, Durations: schedule.UnitSlots, Decoupled: true})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Shape: paperShape, Durations: schedule.UnitSlots, Failed: paperFailed, Decoupled: true}
	want, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Hint = info.Hint // fault-free hint, faulty instance
	got, gotInfo, err := SolveInstrumented(in)
	if err != nil {
		t.Fatal(err)
	}
	if gotInfo.Kind != KindScratch {
		t.Fatalf("stale-hinted solve kind = %v, want scratch", gotInfo.Kind)
	}
	if horizon(got.Placements) != horizon(want.Placements) {
		t.Fatalf("stale-hinted solve horizon %d differs from hintless %d", horizon(got.Placements), horizon(want.Placements))
	}
}

// randomInstance draws a random pipeline shape, victim set (never killing
// a whole stage) and slot durations.
func randomInstance(rng *rand.Rand) Input {
	dp := 2 + rng.Intn(3)
	pp := 2 + rng.Intn(3)
	mb := dp * (1 + rng.Intn(3))
	sh := schedule.Shape{DP: dp, PP: pp, MB: mb, Iter: 1}
	failed := make(map[schedule.Worker]bool)
	perStage := make([]int, pp)
	for i, n := 0, rng.Intn(dp); i < n; i++ {
		w := schedule.Worker{Stage: rng.Intn(pp), Pipeline: rng.Intn(dp)}
		if !failed[w] && perStage[w.Stage] < dp-1 {
			failed[w] = true
			perStage[w.Stage]++
		}
	}
	return Input{
		Shape: sh,
		Durations: schedule.Durations{
			F:       1 + int64(rng.Intn(3)),
			BInput:  1 + int64(rng.Intn(3)),
			BWeight: 1 + int64(rng.Intn(2)),
			Opt:     1 + int64(rng.Intn(2)),
			Comm:    int64(rng.Intn(2)),
		},
		Failed:    failed,
		Decoupled: rng.Intn(2) == 1,
		Staggered: rng.Intn(2) == 1,
	}
}

// TestWarmNeverWorseRandomized is the warm-start safety property: across
// randomized shapes, victim sets, technique flags and duration
// perturbations, a hinted solve never produces a longer horizon than the
// scratch solve of the same instance, and its schedule always validates.
// With unperturbed durations the hinted solve must be warm-identical.
func TestWarmNeverWorseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		base := randomInstance(rng)
		_, info, err := SolveInstrumented(base)
		if err != nil {
			t.Fatalf("trial %d: base solve: %v", trial, err)
		}

		// Same instance again: the hint short-circuits the solve.
		same := base
		same.Hint = info.Hint
		_, sameInfo, err := SolveInstrumented(same)
		if err != nil {
			t.Fatalf("trial %d: identical re-solve: %v", trial, err)
		}
		if sameInfo.Kind != KindWarmIdentical {
			t.Fatalf("trial %d: identical re-solve kind = %v, want warm-identical", trial, sameInfo.Kind)
		}

		// Perturbed durations, same victims: warm replay races scratch and
		// the winner is whichever horizon is shorter — never worse.
		drift := base
		drift.Durations.F += int64(rng.Intn(2))
		drift.Durations.BInput += int64(rng.Intn(2))
		drift.Durations.BWeight += int64(rng.Intn(2))
		drift.Durations.Opt += int64(rng.Intn(2))
		scratch, err := Solve(drift)
		if err != nil {
			t.Fatalf("trial %d: scratch drifted solve: %v", trial, err)
		}
		drift.Hint = info.Hint
		warm, warmInfo, err := SolveInstrumented(drift)
		if err != nil {
			t.Fatalf("trial %d: warm drifted solve: %v", trial, err)
		}
		if warmInfo.Kind == KindWarmIdentical && drift.Durations != base.Durations {
			t.Fatalf("trial %d: drifted durations classified warm-identical", trial)
		}
		if hw, hs := horizon(warm.Placements), horizon(scratch.Placements); hw > hs {
			t.Fatalf("trial %d (%+v): warm horizon %d worse than scratch %d", trial, drift.Shape, hw, hs)
		}
		if err := schedule.Validate(warm, schedule.ValidateConfig{}); err != nil {
			t.Fatalf("trial %d: warm schedule invalid: %v", trial, err)
		}
	}
}

// TestExactRootBoundSkipsSearch checks the node-budget fix: when the
// incumbent (greedy, or a warm-validated hint) already meets the
// critical-path lower bound, ExactMakespan proves optimality at the root
// without expanding a node — a 1-node budget suffices, where the old code
// burned the whole budget re-deriving what the hint already proved.
func TestExactRootBoundSkipsSearch(t *testing.T) {
	// One micro-batch per pipeline: the dependency chain F0→F1→B1→B0
	// (1+1+2+2 slots; coupled B costs TB=2) is the whole schedule, so
	// greedy meets the bound exactly.
	in := Input{Shape: schedule.Shape{DP: 2, PP: 2, MB: 1, Iter: 1}, Durations: schedule.UnitSlots}
	res, err := ExactMakespan(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Nodes != 0 {
		t.Fatalf("root bound did not fire: %+v (want optimal, 0 nodes)", res)
	}
	if res.Makespan != 6 {
		t.Fatalf("chain makespan = %d, want 6", res.Makespan)
	}

	// Hinted: the incumbent seeding warm-hits, and the result is unchanged.
	_, info, err := SolveInstrumented(in)
	if err != nil {
		t.Fatal(err)
	}
	in.Hint = info.Hint
	hinted, err := ExactMakespan(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hinted != res {
		t.Fatalf("hinted exact result %+v differs from hintless %+v", hinted, res)
	}
}

// TestExactParallelDeterministic checks that the parallel branch
// exploration cannot change the result: repeated runs agree on makespan
// and optimality (node counts may differ — pruning races are benign).
func TestExactParallelDeterministic(t *testing.T) {
	in := Input{Shape: paperShape, Durations: schedule.UnitSlots, Failed: paperFailed, Decoupled: true, MemCap: 4}
	first, err := ExactMakespan(in, 300000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := ExactMakespan(in, 300000)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != first.Makespan || got.Optimal != first.Optimal {
			t.Fatalf("run %d: (makespan=%d optimal=%v), first run (makespan=%d optimal=%v)",
				i, got.Makespan, got.Optimal, first.Makespan, first.Optimal)
		}
	}
}
