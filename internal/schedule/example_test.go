package schedule_test

import (
	"fmt"

	"recycle/internal/schedule"
)

// ExampleCompile lowers a timed schedule into the executable Program IR:
// per-worker instruction streams plus explicit dependency edges and one
// all-reduce barrier per stage, with each instruction stamped with the
// duration the schedule assigned it. The same artifact is interpreted by
// the live runtime and executed in virtual time by the discrete-event
// simulator. An optimizer's producers are its stage's weight gradients,
// which the barrier holds rather than its Deps.
func ExampleCompile() {
	// The fault-free 1F1B baseline on 1 pipeline × 2 stages × 2 micro-batches.
	s := schedule.FaultFree1F1B(schedule.Shape{DP: 1, PP: 2, MB: 2, Iter: 1}, schedule.UnitSlots)

	prog, err := schedule.Compile(s)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	fmt.Printf("instructions: %d over %d workers\n", len(prog.Instrs), len(prog.Workers()))
	w := schedule.Worker{Stage: 1, Pipeline: 0}
	fmt.Printf("stream of %s:\n", w)
	for _, id := range prog.Stream(w) {
		fmt.Printf("  %-18s dur=%d deps=%d\n", prog.Op(int(id)), prog.DurOf(int(id)), len(prog.Producers(int(id))))
	}
	// Output:
	// instructions: 10 over 2 workers
	// stream of W0_1:
	//   it0:F(mb0,p0)@W0_1 dur=1 deps=1
	//   it0:B(mb0,p0)@W0_1 dur=2 deps=1
	//   it0:F(mb1,p0)@W0_1 dur=1 deps=1
	//   it0:B(mb1,p0)@W0_1 dur=2 deps=1
	//   it0:OPT@W0_1       dur=1 deps=2
}
