package engine_test

import (
	"fmt"

	"recycle/internal/engine"
	"recycle/internal/schedule"
)

// ExampleEngine_ProgramFor shows the Coordinator's failure-handling fetch
// path: a 2×2 job loses worker W1_1, and the plan service returns the
// compiled Program of an adaptive schedule that reroutes the lost worker's
// micro-batches to its data-parallel peer (cache → Best(n) → solve-on-miss,
// then the Program slot → replicated store → compile, all behind one call).
func ExampleEngine_ProgramFor() {
	job, stats := engine.ShapeJob(2, 2, 4) // DP=2 pipelines × PP=2 stages, 4 micro-batches each
	eng := engine.New(job, stats, engine.Options{})

	failed := map[schedule.Worker]bool{{Stage: 1, Pipeline: 1}: true}
	prog, err := eng.ProgramFor(failed)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	rerouted := 0
	for i := range prog.Instrs {
		if op := prog.Op(i); op.Type != schedule.Optimizer && op.Rerouted() {
			rerouted++
		}
	}
	fmt.Printf("workers executing ops: %d of 4\n", len(prog.Workers()))
	fmt.Printf("rerouted compute ops per iteration: %d\n", rerouted/prog.Shape.Iter)
	fmt.Printf("solves performed: %d\n", eng.Metrics().Solves)
	// Output:
	// workers executing ops: 3 of 4
	// rerouted compute ops per iteration: 12
	// solves performed: 1
}
