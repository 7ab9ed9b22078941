package solver

import (
	"testing"
	"testing/quick"

	"recycle/internal/schedule"
)

// paperShape is the running example of Figures 3, 5 and 6: three
// data-parallel pipelines, four stages, six micro-batches, unit slots
// (TF=1, TB=2), with worker W1_2 failed.
var (
	paperShape  = schedule.Shape{DP: 3, PP: 4, MB: 6, Iter: 1}
	paperFailed = map[schedule.Worker]bool{{Stage: 2, Pipeline: 1}: true}
)

// TestFaultFreeMatchesClosedForm checks the solver reproduces the
// closed-form 1F1B makespan with no failures (Fig 3a: 27 slots).
func TestFaultFreeMatchesClosedForm(t *testing.T) {
	for _, sh := range []schedule.Shape{
		{DP: 3, PP: 4, MB: 6, Iter: 1},
		{DP: 2, PP: 2, MB: 8, Iter: 1},
		{DP: 4, PP: 8, MB: 16, Iter: 1},
	} {
		for _, dec := range []bool{false, true} {
			s, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Decoupled: dec})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(sh.PP-1)*3 + int64(sh.MB)*3
			if got := s.ComputeMakespan(0); got != want {
				t.Errorf("shape %+v decoupled=%v: makespan %d, want %d", sh, dec, got, want)
			}
		}
	}
}

// TestFig3bAdaptiveCoupled checks Adaptive Pipelining with conventional
// coupled backward passes. In Naive mode (round-robin insertion into the
// 1F1B skeleton, no deadline priorities — what a pipeline engine without
// decoupled-backward instructions can do) the solver reproduces the
// paper's Figure 3b exactly: 36 slots (+33% with 8.3% of workers failed).
// With deadline-driven list scheduling the same coupled workload packs
// into 34 slots; both values are pinned.
func TestFig3bAdaptiveCoupled(t *testing.T) {
	naive, err := Solve(Input{Shape: paperShape, Durations: schedule.UnitSlots, Failed: paperFailed, Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := naive.ComputeMakespan(0); got != 36 {
		t.Fatalf("naive adaptive makespan = %d, want 36 (Fig 3b)", got)
	}
	if err := schedule.Validate(naive, schedule.ValidateConfig{}); err != nil {
		t.Fatal(err)
	}
	s, err := Solve(Input{Shape: paperShape, Durations: schedule.UnitSlots, Failed: paperFailed})
	if err != nil {
		t.Fatal(err)
	}
	got := s.ComputeMakespan(0)
	if got <= 27 || got > 36 {
		t.Fatalf("adaptive coupled makespan = %d, want in (27, 36]", got)
	}
	if got != 34 {
		t.Errorf("adaptive coupled makespan = %d, pinned value 34 changed — update EVALUATION.md if intentional", got)
	}
	if err := schedule.Validate(s, schedule.ValidateConfig{}); err != nil {
		t.Fatal(err)
	}
}

// TestFig5Decoupled reproduces Figure 5: Decoupled BackProp brings the
// adaptive schedule down to 29 slots (7.4% overhead with 8.3% of workers
// failed).
func TestFig5Decoupled(t *testing.T) {
	s, err := Solve(Input{Shape: paperShape, Durations: schedule.UnitSlots, Failed: paperFailed, Decoupled: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ComputeMakespan(0); got != 29 {
		t.Fatalf("decoupled adaptive makespan = %d, want 29 (Fig 5)", got)
	}
	if err := schedule.Validate(s, schedule.ValidateConfig{Decoupled: true}); err != nil {
		t.Fatal(err)
	}
}

// TestFig6StaggeredZeroOverhead reproduces Figure 6: with all three
// techniques, the steady-state iteration period equals the fault-free
// period — zero overhead despite the failed worker.
func TestFig6StaggeredZeroOverhead(t *testing.T) {
	sh := paperShape
	sh.Iter = 4
	withFault, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Failed: paperFailed, Decoupled: true, Staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	faultFree, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := withFault.SteadyPeriod(), faultFree.SteadyPeriod(); got != want {
		t.Fatalf("staggered steady period = %d, want fault-free %d (Fig 6: zero overhead)", got, want)
	}
	if err := schedule.Validate(withFault, schedule.ValidateConfig{Decoupled: true}); err != nil {
		t.Fatal(err)
	}
}

// TestTechniqueOrdering checks the ablation ordering of Fig 11 on the
// running example: each technique strictly improves the schedule.
func TestTechniqueOrdering(t *testing.T) {
	sh := paperShape
	sh.Iter = 3
	period := func(dec, stag bool) int64 {
		s, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Failed: paperFailed, Decoupled: dec, Staggered: stag})
		if err != nil {
			t.Fatal(err)
		}
		return s.SteadyPeriod()
	}
	adaptive := period(false, false)
	decoupled := period(true, false)
	staggered := period(true, true)
	if !(adaptive > decoupled && decoupled > staggered) {
		t.Fatalf("technique ordering violated: adaptive=%d decoupled=%d staggered=%d", adaptive, decoupled, staggered)
	}
}

// TestReroutingEvenlySpreads checks the round-robin distribution of a
// failed worker's micro-batches across live peers (§3.1).
func TestReroutingEvenlySpreads(t *testing.T) {
	sh := schedule.Shape{DP: 4, PP: 2, MB: 12, Iter: 1}
	failed := map[schedule.Worker]bool{{Stage: 1, Pipeline: 2}: true}
	routes, err := RouteMicroBatchesCost(sh, failed, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for j := 0; j < sh.MB; j++ {
		exec := routes[1][2][j]
		if exec == 2 {
			t.Fatalf("micro-batch %d routed to the failed worker", j)
		}
		counts[exec]++
	}
	for k, c := range counts {
		if c != sh.MB/3 {
			t.Errorf("peer %d absorbs %d micro-batches, want %d", k, c, sh.MB/3)
		}
	}
}

// TestStageDeadReturnsError checks the §3.4 guarantee boundary: when every
// peer of a stage is gone, the solver refuses and the caller must fall
// back to a checkpoint.
func TestStageDeadReturnsError(t *testing.T) {
	sh := schedule.Shape{DP: 2, PP: 2, MB: 4, Iter: 1}
	failed := map[schedule.Worker]bool{
		{Stage: 1, Pipeline: 0}: true,
		{Stage: 1, Pipeline: 1}: true,
	}
	_, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Failed: failed})
	if err == nil {
		t.Fatal("expected ErrStageDead, got nil")
	}
}

// TestMoreThanDPMinus1Failures reproduces the Fig 7b scenario: 8 of 12
// workers fail (far beyond DP-1 = 2), yet one live worker per stage
// remains and training continues.
func TestMoreThanDPMinus1Failures(t *testing.T) {
	sh := schedule.Shape{DP: 3, PP: 4, MB: 6, Iter: 1}
	failed := map[schedule.Worker]bool{}
	// Keep exactly one live worker per stage: W0_0, W1_1, W2_2, W0_3.
	live := map[schedule.Worker]bool{
		{Stage: 0, Pipeline: 0}: true,
		{Stage: 1, Pipeline: 1}: true,
		{Stage: 2, Pipeline: 2}: true,
		{Stage: 3, Pipeline: 0}: true,
	}
	for k := 0; k < sh.DP; k++ {
		for i := 0; i < sh.PP; i++ {
			w := schedule.Worker{Stage: i, Pipeline: k}
			if !live[w] {
				failed[w] = true
			}
		}
	}
	s, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Failed: failed, Decoupled: true, Staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(s, schedule.ValidateConfig{Decoupled: true}); err != nil {
		t.Fatal(err)
	}
	// All work lands on 4 workers: makespan at least total per-worker load.
	if got := s.ComputeMakespan(0); got < int64(3*sh.MB*3) {
		t.Errorf("makespan %d below the single-worker load bound %d", got, 3*sh.MB*3)
	}
}

// TestSolveDeterministic checks that two solves of the same input produce
// identical placements (plans must be reproducible across the cluster).
func TestSolveDeterministic(t *testing.T) {
	in := Input{Shape: paperShape, Durations: schedule.UnitSlots, Failed: paperFailed, Decoupled: true, Staggered: true}
	a, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Placements) != len(b.Placements) {
		t.Fatal("placement counts differ between identical solves")
	}
	for i := range a.Placements {
		if a.Placements[i] != b.Placements[i] {
			t.Fatalf("placement %d differs: %+v vs %+v", i, a.Placements[i], b.Placements[i])
		}
	}
}

// TestRandomFailuresValidate property-checks the solver: for random
// shapes and failure sets (keeping one live peer per stage), the schedule
// satisfies the full MILP constraint set.
func TestRandomFailuresValidate(t *testing.T) {
	check := func(dpR, ppR, mbR uint8, failBits uint16, dec, stag bool) bool {
		dp := int(dpR%3) + 2  // 2..4
		pp := int(ppR%3) + 2  // 2..4
		mb := int(mbR%4) + pp // pp..pp+3
		sh := schedule.Shape{DP: dp, PP: pp, MB: mb, Iter: 2}
		failed := map[schedule.Worker]bool{}
		bit := 0
		for i := 0; i < pp; i++ {
			// Never fail pipeline 0: guarantees one live peer per stage.
			for k := 1; k < dp; k++ {
				if failBits&(1<<(bit%16)) != 0 {
					failed[schedule.Worker{Stage: i, Pipeline: k}] = true
				}
				bit++
			}
		}
		s, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Failed: failed, Decoupled: dec, Staggered: stag})
		if err != nil {
			return false
		}
		return schedule.Validate(s, schedule.ValidateConfig{Decoupled: dec}) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryCapRespected solves with a tight per-stage cap and verifies
// the cap via the validator's memory sweep.
func TestMemoryCapRespected(t *testing.T) {
	caps := []int{5, 5, 5, 5}
	s, err := Solve(Input{
		Shape: paperShape, Durations: schedule.UnitSlots,
		Failed: paperFailed, Decoupled: true, MemCapPerStage: caps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(s, schedule.ValidateConfig{MemCap: 5, Decoupled: true}); err != nil {
		t.Fatal(err)
	}
}

// TestExactCertifiesGreedy runs the branch-and-bound search on small
// instances and checks the heuristic is never beaten (on instances the
// search closes, it is provably optimal).
func TestExactCertifiesGreedy(t *testing.T) {
	if testing.Short() {
		t.Skip("exact search is slow")
	}
	for _, tc := range []struct {
		shape  schedule.Shape
		failed map[schedule.Worker]bool
		dec    bool
	}{
		{schedule.Shape{DP: 2, PP: 2, MB: 2, Iter: 1}, nil, false},
		{schedule.Shape{DP: 2, PP: 2, MB: 3, Iter: 1}, map[schedule.Worker]bool{{Stage: 1, Pipeline: 1}: true}, false},
		{schedule.Shape{DP: 2, PP: 2, MB: 3, Iter: 1}, map[schedule.Worker]bool{{Stage: 1, Pipeline: 1}: true}, true},
		{schedule.Shape{DP: 3, PP: 2, MB: 4, Iter: 1}, map[schedule.Worker]bool{{Stage: 1, Pipeline: 1}: true}, true},
	} {
		in := Input{Shape: tc.shape, Durations: schedule.UnitSlots, Failed: tc.failed, Decoupled: tc.dec}
		g, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ExactMakespan(in, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Makespan < g.ComputeMakespan(0) {
			t.Errorf("shape %+v dec=%v: exact found %d < greedy %d", tc.shape, tc.dec, ex.Makespan, g.ComputeMakespan(0))
		}
	}
}

// TestScaledDurations checks the solver with realistic microsecond-scale
// durations (profiled values) rather than unit slots.
func TestScaledDurations(t *testing.T) {
	d := schedule.Durations{F: 1500, BInput: 1500, BWeight: 1500, Opt: 4000, Comm: 120}
	sh := schedule.Shape{DP: 3, PP: 4, MB: 6, Iter: 2}
	ff, err := Solve(Input{Shape: sh, Durations: d})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(ff, schedule.ValidateConfig{}); err != nil {
		t.Fatal(err)
	}
	adapted, err := Solve(Input{Shape: sh, Durations: d, Failed: paperFailed, Decoupled: true, Staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(adapted, schedule.ValidateConfig{Decoupled: true}); err != nil {
		t.Fatal(err)
	}
	ffP, adP := ff.SteadyPeriod(), adapted.SteadyPeriod()
	if adP < ffP {
		t.Fatalf("adapted period %d below fault-free %d", adP, ffP)
	}
	if float64(adP) > 1.15*float64(ffP) {
		t.Errorf("adapted period %d more than 15%% over fault-free %d with comm costs", adP, ffP)
	}
}
