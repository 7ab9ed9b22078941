package solver

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"recycle/internal/schedule"
)

// uniformFn wraps homogeneous durations as a CostFunc — the identity cost
// model every duration-aware code path must treat as a no-op.
func uniformFn(d schedule.Durations) schedule.CostFunc {
	return func(w schedule.Worker, t schedule.OpType) int64 { return d.Of(t) }
}

// TestUniformCostsReproduceUnitSlotSchedulesBitForBit is the regression
// guarantee for the cost-model layer: threading an explicit-but-uniform
// CostFunc through the solver must produce exactly the placements the
// homogeneous solve produces — same ops, same workers, same start/end
// times — across random shapes, failure sets and technique toggles. This
// pins PR 2's sim/runtime agreement guarantees: a uniform cost model
// cannot perturb any schedule the agreement tests rely on.
func TestUniformCostsReproduceUnitSlotSchedulesBitForBit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sh := schedule.Shape{
			DP:   2 + rng.Intn(3),
			PP:   2 + rng.Intn(3),
			MB:   2 + rng.Intn(5),
			Iter: 1 + rng.Intn(2),
		}
		d := schedule.Durations{
			F:       1 + int64(rng.Intn(3)),
			BInput:  1 + int64(rng.Intn(3)),
			BWeight: 1 + int64(rng.Intn(3)),
			Opt:     1 + int64(rng.Intn(3)),
			Comm:    int64(rng.Intn(2)),
		}
		failed := map[schedule.Worker]bool{}
		for n := rng.Intn(sh.DP); n > 0; n-- {
			failed[schedule.Worker{Stage: rng.Intn(sh.PP), Pipeline: rng.Intn(sh.DP)}] = true
		}
		in := Input{
			Shape:     sh,
			Durations: d,
			Failed:    failed,
			Decoupled: rng.Intn(2) == 0,
			Staggered: rng.Intn(2) == 0,
		}
		base, err := Solve(in)
		if err != nil {
			return true // invalid combo (e.g. dead stage) — nothing to compare
		}
		in.Costs = uniformFn(d)
		withCosts, err := Solve(in)
		if err != nil {
			t.Logf("seed %d: cost-aware solve failed where homogeneous succeeded: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(base.Placements, withCosts.Placements) {
			t.Logf("seed %d: placements diverge under a uniform cost model", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// stragglerCosts returns a CostFunc scaling every compute op of one worker.
func stragglerCosts(d schedule.Durations, slow schedule.Worker, factor int64) schedule.CostFunc {
	return func(w schedule.Worker, t schedule.OpType) int64 {
		c := d.Of(t)
		if w == slow {
			c *= factor
		}
		return c
	}
}

// TestHeterogeneousSolveValidates checks that schedules solved under a
// straggler cost model satisfy the full MILP constraint set with the real
// per-worker durations, and that routing demotes the slow worker.
func TestHeterogeneousSolveValidates(t *testing.T) {
	d := schedule.UnitSlots
	slow := schedule.Worker{Stage: 0, Pipeline: 0}
	costs := stragglerCosts(d, slow, 2)
	in := Input{
		Shape:     schedule.Shape{DP: 3, PP: 4, MB: 6, Iter: 2},
		Durations: d,
		Costs:     costs,
		Decoupled: true,
		Staggered: true,
	}
	s, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(s, schedule.ValidateConfig{Costs: costs}); err != nil {
		t.Fatal(err)
	}
	// The slow worker must have shed part of its own micro-batches.
	slowOps := 0
	for _, p := range s.Placements {
		if p.Op.Type != schedule.Optimizer && p.Op.Worker() == slow {
			slowOps++
		}
	}
	fullLoad := 3 * in.Shape.MB * in.Shape.Iter // F+BI+BW for every home micro-batch
	if slowOps >= fullLoad {
		t.Fatalf("straggler still executes its full load (%d ops)", slowOps)
	}
	if slowOps == 0 {
		t.Fatal("straggler was removed entirely; demotion should keep it contributing")
	}
}

// TestRouteMicroBatchesCostUniformMatchesRoundRobin pins the fallback:
// flat per-stage costs must reproduce the round-robin routing of no cost
// model exactly, failures included.
func TestRouteMicroBatchesCostUniformMatchesRoundRobin(t *testing.T) {
	sh := schedule.Shape{DP: 3, PP: 4, MB: 6, Iter: 1}
	failed := map[schedule.Worker]bool{
		{Stage: 1, Pipeline: 1}: true,
		{Stage: 1, Pipeline: 2}: true,
	}
	want, err := RouteMicroBatchesCost(sh, failed, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RouteMicroBatchesCost(sh, failed, uniformFn(schedule.UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("uniform cost routing diverges:\n got %v\nwant %v", got, want)
	}
}

// TestRouteMicroBatchesCostBalancesLoad checks the greedy placement: with
// one 2x worker at a stage, the straggler keeps roughly the share of
// micro-batches it can finish in step with its peers.
func TestRouteMicroBatchesCostBalancesLoad(t *testing.T) {
	sh := schedule.Shape{DP: 2, PP: 1, MB: 8, Iter: 1}
	slow := schedule.Worker{Stage: 0, Pipeline: 0}
	routes, err := RouteMicroBatchesCost(sh, nil, stragglerCosts(schedule.UnitSlots, slow, 2))
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for j := 0; j < sh.MB; j++ {
		if routes[0][0][j] == 0 {
			kept++
		}
	}
	// Peer starts with 8 mbs of its own (cost 3 each = 24); balancing the
	// straggler's 8 mbs (cost 6 on itself, 3 on the peer) should split them
	// roughly 2:1 toward the straggler until finish times level out.
	if kept == 0 || kept == sh.MB {
		t.Fatalf("straggler kept %d of %d micro-batches; want a strict split", kept, sh.MB)
	}
	// Dead workers still error when a stage has no live peer.
	if _, err := RouteMicroBatchesCost(sh, map[schedule.Worker]bool{
		{Stage: 0, Pipeline: 0}: true,
		{Stage: 0, Pipeline: 1}: true,
	}, uniformFn(schedule.UnitSlots)); err == nil {
		t.Fatal("all-dead stage did not error")
	}
}

// TestExactSearchUsesCosts certifies the heuristic on a small straggler
// instance: the branch-and-bound incumbent (seeded by the greedy schedule)
// must not beat the greedy makespan by running the straggler at base speed.
func TestExactSearchUsesCosts(t *testing.T) {
	d := schedule.UnitSlots
	slow := schedule.Worker{Stage: 0, Pipeline: 0}
	in := Input{
		Shape:     schedule.Shape{DP: 2, PP: 2, MB: 3, Iter: 1},
		Durations: d,
		Costs:     stragglerCosts(d, slow, 3),
		Decoupled: true,
		Staggered: true,
	}
	g, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExactMakespan(in, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > g.ComputeMakespan(0) {
		t.Fatalf("exact makespan %d worse than greedy %d", res.Makespan, g.ComputeMakespan(0))
	}
	// A homogeneous solve of the same shape must be strictly faster than
	// the straggler-bound optimum — the costs are really being charged.
	in2 := in
	in2.Costs = nil
	h, err := Solve(in2)
	if err != nil {
		t.Fatal(err)
	}
	if h.ComputeMakespan(0) >= res.Makespan {
		t.Fatalf("homogeneous makespan %d not better than straggler optimum %d — costs ignored?", h.ComputeMakespan(0), res.Makespan)
	}
}
