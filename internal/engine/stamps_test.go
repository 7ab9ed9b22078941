package engine_test

import (
	"fmt"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/solver"
)

// requireStampsMatchCosts fails unless every instruction of p is stamped
// with its executing worker's cost-table entry for its op type — the
// invariant that lets a cost table re-time a Program by re-stamping it.
func requireStampsMatchCosts(t *testing.T, label string, p *schedule.Program) {
	t.Helper()
	for id := range p.Instrs {
		if got, want := p.DurOf(id), p.Cost(p.Op(id).Worker(), p.Type(id)); got != want {
			t.Fatalf("%s: instruction %d (%s) is stamped %d, its cost-table entry is %d", label, id, p.Op(id), got, want)
		}
	}
}

// TestStampsMatchCostTable checks that Compile stamps each instruction with
// the duration its Program's cost model gives its executing worker: for
// every Program the codec digests compile (unit and skewed durations, every
// shape ≤ DP3×PP3×MB4, no, single and double failures) and for the
// Programs of engines planning under a straggler or uneven stages.
func TestStampsMatchCostTable(t *testing.T) {
	for _, sh := range codecDigestShapes() {
		for _, in := range codecDigestInputs(sh) {
			for _, failed := range codecFailureSets(sh) {
				in.Failed = failed
				s, err := solver.Solve(in)
				if err != nil {
					continue
				}
				prog, err := schedule.Compile(s)
				if err != nil {
					t.Fatal(err)
				}
				requireStampsMatchCosts(t, fmt.Sprintf("%+v %+v failed %v", sh, in.Durations, failed), prog)
			}
		}
	}
	job, stats := engine.ShapeJob(3, 4, 6)
	victim := schedule.Worker{Stage: 0, Pipeline: 0}
	for _, cm := range []*profile.CostModel{
		profile.UniformCost(stats).WithWorkerScale(victim, 1.5),
		profile.UniformCost(stats).WithWorkerScale(victim, 3),
		profile.UniformCost(stats).WithStageScale([]float64{1, 2, 1, 1.5}),
	} {
		e := engine.New(job, stats, engine.Options{CostModel: cm})
		label := fmt.Sprintf("stages %g, workers %v", cm.StageScale, cm.WorkerScale)
		for n := 0; n <= 2; n++ {
			prog, err := e.Program(n)
			if err != nil {
				t.Fatal(err)
			}
			if len(prog.CostTable()) == 0 {
				t.Fatalf("%s, %d failures: the Program carries no cost table", label, n)
			}
			requireStampsMatchCosts(t, fmt.Sprintf("%s, %d failures", label, n), prog)
		}
	}
}
