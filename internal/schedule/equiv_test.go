package schedule_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"recycle/internal/schedule"
	"recycle/internal/solver"
)

// stageCosts builds a cost table where every worker of a stage shares one
// duration profile scaled by the stage's factor — pipelines stay
// cost-identical, so all of them form one equivalence class.
func stageCosts(sh schedule.Shape, d schedule.Durations, scale []int64) []int64 {
	return schedule.NewCostTable(sh, func(w schedule.Worker, t schedule.OpType) int64 {
		return d.Of(t) * scale[w.Stage]
	})
}

// TestPipelineClassesSplitByCost checks the partition: homogeneous costs
// put every pipeline in one class; a per-pipeline asymmetry splits exactly
// the differing pipeline out.
func TestPipelineClassesSplitByCost(t *testing.T) {
	sh := schedule.Shape{DP: 4, PP: 2, MB: 4, Iter: 1}
	got := schedule.PipelineClasses(sh, nil)
	if len(got) != 1 || !slices.Equal(got[0], []int{0, 1, 2, 3}) {
		t.Fatalf("nil costs: classes = %v, want one class of all pipelines", got)
	}

	slow := schedule.Worker{Stage: 1, Pipeline: 2}
	costs := schedule.NewCostTable(sh, func(w schedule.Worker, ot schedule.OpType) int64 {
		d := schedule.UnitSlots.Of(ot)
		if w == slow {
			return d * 3
		}
		return d
	})
	got = schedule.PipelineClasses(sh, costs)
	if len(got) != 2 || !slices.Equal(got[0], []int{0, 1, 3}) || !slices.Equal(got[1], []int{2}) {
		t.Fatalf("straggler costs: classes = %v, want [[0 1 3] [2]]", got)
	}
}

// TestCanonicalizeRoundTrip is the symmetry-breaking safety property:
// solving the canonical victim set and renaming the result back through
// the inverse permutation yields a schedule that validates for the
// ORIGINAL victims with the canonical makespan — the renamed plan really
// is an exact isomorph, across random victim sets and both homogeneous
// and stage-scaled (class-preserving) cost models.
func TestCanonicalizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sh := schedule.Shape{DP: 4, PP: 3, MB: 8, Iter: 1}
	scale := []int64{1, 2, 1}
	for trial := 0; trial < 40; trial++ {
		var costs []int64
		if trial%2 == 1 {
			costs = stageCosts(sh, schedule.UnitSlots, scale)
		}
		victims := make([]schedule.Worker, 0, 3)
		seen := make(map[schedule.Worker]bool)
		perStage := make([]int, sh.PP)
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			w := schedule.Worker{Stage: rng.Intn(sh.PP), Pipeline: rng.Intn(sh.DP)}
			if !seen[w] && perStage[w.Stage] < sh.DP-1 {
				seen[w] = true
				perStage[w.Stage]++
				victims = append(victims, w)
			}
		}
		canon, perm, _ := schedule.CanonicalizeVictims(sh, costs, victims)

		// The permutation must be a bijection that reproduces canon.
		if inv := schedule.InvertPerm(perm); len(inv) != sh.DP {
			t.Fatalf("trial %d: perm %v is not a permutation", trial, perm)
		}
		mapped := make([]schedule.Worker, len(victims))
		for i, w := range victims {
			mapped[i] = schedule.Worker{Stage: w.Stage, Pipeline: perm[w.Pipeline]}
		}
		schedule.SortWorkers(mapped)
		if !slices.Equal(mapped, canon) {
			t.Fatalf("trial %d: perm %v maps victims to %v, canon says %v", trial, perm, mapped, canon)
		}

		// Canonicalizing the canonical set must be a fixed point.
		canon2, _, changed2 := schedule.CanonicalizeVictims(sh, costs, canon)
		if changed2 || !slices.Equal(canon2, canon) {
			t.Fatalf("trial %d: canonical set not a fixed point: %v -> %v", trial, canon, canon2)
		}

		failedCanon := make(map[schedule.Worker]bool)
		for _, w := range canon {
			failedCanon[w] = true
		}
		s, err := solver.Solve(solver.Input{Shape: sh, Durations: schedule.UnitSlots, Costs: costs, Failed: failedCanon, Decoupled: true})
		if err != nil {
			t.Fatalf("trial %d: canonical solve: %v", trial, err)
		}
		back := schedule.RenamePipelines(s, schedule.InvertPerm(perm))
		for _, w := range victims {
			if !back.Failed[w] {
				t.Fatalf("trial %d: renamed schedule missing original victim %v", trial, w)
			}
		}
		if err := schedule.Validate(back, schedule.ValidateConfig{Costs: costs}); err != nil {
			t.Fatalf("trial %d (victims %v, canon %v, perm %v): renamed schedule invalid: %v", trial, victims, canon, perm, err)
		}
		if back.ComputeMakespan(0) != s.ComputeMakespan(0) {
			t.Fatalf("trial %d: rename changed makespan %d -> %d", trial, s.ComputeMakespan(0), back.ComputeMakespan(0))
		}
	}
}

// TestRenameProgramReordersTiedStreams covers the rename whose streams
// change order: two zero-length forwards tied at one Start on one worker
// swap places when their homes are renamed, so the representative's plain
// timeline no longer relabels onto the renamed Program. RenameProgram must
// still equal Compile(RenamePipelines), its timeline walked on first use.
func TestRenameProgramReordersTiedStreams(t *testing.T) {
	sh := schedule.Shape{DP: 2, PP: 1, MB: 1, Iter: 1}
	d := schedule.Durations{F: 1, BInput: 1, BWeight: 1, Opt: 1} // a zero-length F runs for d.F
	op := func(ty schedule.OpType, home int) schedule.Op {
		if ty == schedule.Optimizer {
			return schedule.Op{Type: ty, MB: -1}
		}
		return schedule.Op{Type: ty, Home: home}
	}
	s := schedule.New(sh, d, map[schedule.Worker]bool{{Stage: 0, Pipeline: 1}: true}, []schedule.Placement{
		{Op: op(schedule.F, 0), Start: 0, End: 0},
		{Op: op(schedule.F, 1), Start: 0, End: 0},
		{Op: op(schedule.B, 0), Start: 1, End: 3},
		{Op: op(schedule.B, 1), Start: 3, End: 5},
		{Op: op(schedule.Optimizer, 0), Start: 5, End: 6},
	})
	p, err := schedule.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{1, 0}
	want, err := schedule.Compile(schedule.RenamePipelines(s, perm))
	if err != nil {
		t.Fatal(err)
	}
	got := schedule.RenameProgram(s, p, perm)
	// p runs F(home 0) first; renamed, it is F(home 1), which now sorts
	// after the renamed F(home 0).
	if first := got.Op(int(got.Stream(schedule.Worker{Stage: 0, Pipeline: 1})[0])); first.Home != 0 {
		t.Fatalf("the renamed stream starts with %s; the test no longer reaches the reordering rename", first)
	}
	want.Plain()
	got.Plain()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RenameProgram differs from Compile(RenamePipelines)")
	}
}
