package experiments

import (
	"testing"

	"recycle/internal/engine"
	"recycle/internal/schedule"
)

// TestStragglerAwareBeatsOblivious is the acceptance check for
// cost-model-aware planning: on a DES scenario with one 2x straggler, the
// plan solved with the straggler in its cost model finishes strictly
// earlier — under the identical ground-truth durations — than the plan
// solved blind, and it does so by shifting load off the victim, not by
// dropping the victim.
func TestStragglerAwareBeatsOblivious(t *testing.T) {
	victim := schedule.Worker{Stage: 0, Pipeline: 0}
	row, err := StragglerStudy(3, 4, 6, victim, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.AwareSlots >= row.ObliviousSlots {
		t.Fatalf("aware plan (%d slots) does not beat oblivious (%d slots)", row.AwareSlots, row.ObliviousSlots)
	}
	if row.VictimOpsAware >= row.VictimOps {
		t.Fatalf("aware plan did not shed victim load: %d -> %d ops", row.VictimOps, row.VictimOpsAware)
	}
	if row.VictimOpsAware == 0 {
		t.Fatal("aware plan removed the victim entirely; demotion keeps it contributing")
	}
	if row.GainPct <= 0 {
		t.Fatalf("non-positive gain %.2f%%", row.GainPct)
	}
}

// TestStragglerStudyWithFailures combines a hard failure with a gray one:
// the aware plan must still win when both kinds of fault are live.
func TestStragglerStudyWithFailures(t *testing.T) {
	victim := schedule.Worker{Stage: 1, Pipeline: 1}
	job, stats := engine.ShapeJob(3, 4, 6)
	row, err := StragglerStudyJob(job, stats, 1, victim, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.AwareSlots >= row.ObliviousSlots {
		t.Fatalf("aware plan (%d slots) does not beat oblivious (%d slots) with a failure present", row.AwareSlots, row.ObliviousSlots)
	}
}

// TestStragglerSweepMonotone checks the full Table-2-extension sweep: gains
// must grow with the slowdown factor.
func TestStragglerSweepMonotone(t *testing.T) {
	rows, text, err := stragglerOnce()
	if err != nil {
		t.Fatal(err)
	}
	if text == "" || len(rows) != 3 {
		t.Fatalf("unexpected sweep output: %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].GainPct < rows[i-1].GainPct {
			t.Fatalf("gain not monotone in slowdown: %.1f%% at %.1fx after %.1f%% at %.1fx",
				rows[i].GainPct, rows[i].Factor, rows[i-1].GainPct, rows[i-1].Factor)
		}
	}
}
