// Schedule gallery: the paper's running example, rendered.
//
// Reproduces Figures 3a, 3b, 5 and 6 on the 3-pipeline x 4-stage x
// 6-micro-batch job with worker W1_2 failed: the fault-free 1F1B schedule
// (27 slots), naive adaptive pipelining (36 slots, +33%), Decoupled
// BackProp (29 slots, +7.4%), and the Staggered Optimizer (steady-state
// period equal to fault-free — zero overhead). Each rung of the ablation
// ladder is one plan-service engine with the matching technique set.
package main

import (
	"fmt"
	"log"

	"recycle/internal/engine"
	"recycle/internal/schedule"
)

func main() {
	job, stats := engine.ShapeJob(3, 4, 6)
	failed := []schedule.Worker{{Stage: 2, Pipeline: 1}}

	mk := func(t engine.Techniques, unroll int) *engine.Engine {
		return engine.New(job, stats, engine.Options{Techniques: &t, UnrollIterations: unroll})
	}
	show := func(title string, plan *engine.Plan, err error, period bool) {
		if err != nil {
			log.Fatal(err)
		}
		if period {
			fmt.Printf("== %s: steady-state period %d slots\n", title, plan.PeriodSlots)
		} else {
			fmt.Printf("== %s: %d slots\n", title, plan.Schedule.ComputeMakespan(0))
		}
		fmt.Println(schedule.Render(plan.Schedule, 5))
	}

	ff, err := mk(engine.AllTechniques, 1).Plan(0)
	show("Fig 3a: fault-free 1F1B", ff, err, false)
	naive, err := mk(engine.Techniques{}, 1).PlanConcrete(failed)
	show("Fig 3b: Adaptive Pipelining, naive insertion (W1_2 failed)", naive, err, false)
	dec, err := mk(engine.Techniques{DecoupledBackProp: true}, 1).PlanConcrete(failed)
	show("Fig 5: + Decoupled BackProp", dec, err, false)
	st, err := mk(engine.AllTechniques, 3).PlanConcrete(failed)
	show("Fig 6: + Staggered Optimizer (3 iterations unrolled)", st, err, true)
}
