package solver

import (
	"testing"

	"recycle/internal/schedule"
)

// TestExactRootBoundSkipsSearch checks that when the greedy incumbent
// already meets the critical-path lower bound, ExactMakespan proves
// optimality at the root without expanding a node: a 1-node budget
// suffices.
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
}

// TestExactParallelDeterministic checks that the parallel branch
// exploration cannot change the result: repeated runs agree on makespan
// and optimality (node counts may differ — pruning races are benign).
func TestExactParallelDeterministic(t *testing.T) {
	in := Input{Shape: paperShape, Durations: schedule.UnitSlots, Failed: paperFailed, Decoupled: true, MemCapPerStage: []int{4, 4, 4, 4}}
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
