package solver

import (
	"testing"

	"recycle/internal/schedule"
)

// TestCommLatencyStretchesPipeline checks that non-zero stage-boundary
// communication lengthens the warm-up by (PP-1) round trips but leaves the
// steady-state per-micro-batch cost unchanged.
func TestCommLatencyStretchesPipeline(t *testing.T) {
	sh := schedule.Shape{DP: 2, PP: 4, MB: 8, Iter: 1}
	base, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots})
	if err != nil {
		t.Fatal(err)
	}
	d := schedule.UnitSlots
	d.Comm = 2
	comm, err := Solve(Input{Shape: sh, Durations: d})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(comm, schedule.ValidateConfig{}); err != nil {
		t.Fatal(err)
	}
	// Communication can only lengthen the schedule, by at least the
	// (PP-1) extra round trips of the warm-up and cool-down ramps.
	lower := base.ComputeMakespan(0) + int64(sh.PP-1)*2*d.Comm
	if got := comm.ComputeMakespan(0); got < lower {
		t.Fatalf("with comm=2: makespan %d below the ramp bound %d", got, lower)
	}
	d.Comm = 4
	comm4, err := Solve(Input{Shape: sh, Durations: d})
	if err != nil {
		t.Fatal(err)
	}
	if comm4.ComputeMakespan(0) <= comm.ComputeMakespan(0) {
		t.Fatalf("makespan not monotone in comm latency: %d (c=4) vs %d (c=2)",
			comm4.ComputeMakespan(0), comm.ComputeMakespan(0))
	}
}

// TestMemoryPressureForcesEagerBWeight checks Eq. 6 behavior: with the
// tightest legal cap (the 1F1B peak), deferred BWeight work must run
// eagerly to free stash space, and the schedule stays valid.
func TestMemoryPressureForcesEagerBWeight(t *testing.T) {
	sh := schedule.Shape{DP: 3, PP: 4, MB: 6, Iter: 1}
	failed := map[schedule.Worker]bool{{Stage: 2, Pipeline: 1}: true}
	tight, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Failed: failed, Decoupled: true, MemCapPerStage: []int{4, 4, 4, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(tight, schedule.ValidateConfig{MemCap: 4}); err != nil {
		t.Fatal(err)
	}
	loose, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Failed: failed, Decoupled: true})
	if err != nil {
		t.Fatal(err)
	}
	if tight.ComputeMakespan(0) < loose.ComputeMakespan(0) {
		t.Fatalf("tight memory cap produced a faster schedule (%d < %d)",
			tight.ComputeMakespan(0), loose.ComputeMakespan(0))
	}
	// The loose schedule must actually use the surplus the cap forbids —
	// otherwise this test exercises nothing.
	peaks := schedule.PeakActivations(loose)
	exceeded := false
	for _, p := range peaks {
		if p > 4 {
			exceeded = true
		}
	}
	if !exceeded {
		t.Fatal("unbounded solve never exceeded the 1F1B peak; memory test is vacuous")
	}
}

// TestAsymmetricBackwardDurations checks the solver with TBInput != TBWeight
// (real models are rarely perfectly split).
func TestAsymmetricBackwardDurations(t *testing.T) {
	d := schedule.Durations{F: 100, BInput: 120, BWeight: 80, Opt: 150, Comm: 10}
	sh := schedule.Shape{DP: 2, PP: 3, MB: 6, Iter: 2}
	failed := map[schedule.Worker]bool{{Stage: 1, Pipeline: 1}: true}
	s, err := Solve(Input{Shape: sh, Durations: d, Failed: failed, Decoupled: true, Staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(s, schedule.ValidateConfig{}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleIterationStaggered checks the staggered optimizer degenerates
// gracefully when no unrolling is requested.
func TestSingleIterationStaggered(t *testing.T) {
	sh := schedule.Shape{DP: 2, PP: 2, MB: 4, Iter: 1}
	s, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(s, schedule.ValidateConfig{}); err != nil {
		t.Fatal(err)
	}
	if s.OpCount(0, schedule.Optimizer) != 4 {
		t.Fatalf("expected 4 optimizer steps, got %d", s.OpCount(0, schedule.Optimizer))
	}
}

// TestAllPipelinesButOneFailedAtEveryStage is the extreme Fig 7b shape:
// a single surviving pipeline absorbs everything.
func TestAllPipelinesButOneFailedAtEveryStage(t *testing.T) {
	sh := schedule.Shape{DP: 3, PP: 2, MB: 4, Iter: 1}
	failed := map[schedule.Worker]bool{}
	for k := 1; k < 3; k++ {
		for i := 0; i < 2; i++ {
			failed[schedule.Worker{Stage: i, Pipeline: k}] = true
		}
	}
	s, err := Solve(Input{Shape: sh, Durations: schedule.UnitSlots, Failed: failed, Decoupled: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(s, schedule.ValidateConfig{}); err != nil {
		t.Fatal(err)
	}
	// 12 micro-batch-stages x 3 slots of work on 2 workers: at least 18 per worker.
	if got := s.ComputeMakespan(0); got < 18 {
		t.Fatalf("makespan %d below the serial bound", got)
	}
	if got := s.ReroutedCount(0); got != 2*4*2*3 { // 2 pipelines x 4 mbs x 2 stages x {F,BI,BW}
		t.Fatalf("rerouted op count %d, want %d", got, 2*4*2*3)
	}
}

// TestRouteStabilityAcrossSolves checks rerouting assignments are a pure
// function of the failure set (executors on different machines must agree).
func TestRouteStabilityAcrossSolves(t *testing.T) {
	sh := schedule.Shape{DP: 4, PP: 4, MB: 8, Iter: 1}
	failed := map[schedule.Worker]bool{
		{Stage: 1, Pipeline: 0}: true,
		{Stage: 1, Pipeline: 2}: true,
	}
	a, err := RouteMicroBatchesCost(sh, failed, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RouteMicroBatchesCost(sh, failed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for k := range a[i] {
			for j := range a[i][k] {
				if a[i][k][j] != b[i][k][j] {
					t.Fatalf("routes differ at stage %d pipe %d mb %d", i, k, j)
				}
			}
		}
	}
}
