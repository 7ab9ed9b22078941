package experiments

import (
	"testing"

	"recycle/internal/config"
	"recycle/internal/profile"
)

// TestFigure9StallsAreEmergent pins the acceptance criterion for the
// op-granularity Fig 9: ReCycle's stall time is computed from lost and
// re-planned Program instructions via internal/replay — membership events
// splice the in-flight iteration, failures discard real completed work,
// and the per-model replay carries a full event log. No steady-state
// scalar enters ReCycle's row.
func TestFigure9StallsAreEmergent(t *testing.T) {
	results, report, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || report == "" {
		t.Fatalf("Figure9 returned %d results", len(results))
	}
	for _, r := range results {
		rep := r.Replay
		if rep == nil {
			t.Fatalf("%s: no replay result", r.Model)
		}
		if rep.Iterations == 0 || rep.Average <= 0 {
			t.Fatalf("%s: degenerate replay %+v", r.Model, rep)
		}
		if len(rep.Events) == 0 {
			t.Fatalf("%s: GCP trace produced no membership events", r.Model)
		}
		if rep.StallSeconds <= 0 || rep.LostSlots <= 0 {
			t.Fatalf("%s: no emergent stall (%fs) or lost work (%d slots) over the GCP trace",
				r.Model, rep.StallSeconds, rep.LostSlots)
		}
		spliced, stallFromEvents := 0, 0.0
		for _, ev := range rep.Events {
			stallFromEvents += ev.StallSeconds
			if ev.ResumedMidIteration {
				spliced++
			}
			// A failure that discards completed work must re-plan it. One
			// that lands after every group stepped loses nothing — the
			// steps are durable — and has nothing left to re-plan.
			if ev.Kind == "fail" && ev.ResumedMidIteration && ev.ReplannedOps == 0 && ev.LostOps > 0 {
				t.Fatalf("%s: spliced failure event lost work but re-planned nothing: %+v", r.Model, ev)
			}
		}
		if spliced == 0 {
			t.Fatalf("%s: no event was spliced mid-iteration", r.Model)
		}
		// The total is exactly the sum over events — the stall IS the
		// events' emergent cost, not a separate formula.
		if diff := rep.StallSeconds - stallFromEvents; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: stall %.6f != sum over events %.6f", r.Model, rep.StallSeconds, stallFromEvents)
		}
		if r.FaultFree <= 0 || rep.Average >= r.FaultFree {
			t.Fatalf("%s: replay average %.2f should sit below fault-free %.2f", r.Model, rep.Average, r.FaultFree)
		}
		if len(r.Baselines) == 0 {
			t.Fatalf("%s: no baseline rows", r.Model)
		}
	}
}

// TestReplayEngineCalibration checks the replay engines carry the
// calibrated stage scales where the layer split is uneven: the Fig 9 jobs
// split evenly, but the Table 1 3.35B job must plan with imbalance.
func TestReplayEngineCalibration(t *testing.T) {
	for _, job := range Figure9Jobs() {
		eng, _, err := ReplayEngine(job, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cm := eng.CostModel(); cm != nil {
			t.Fatalf("%s splits evenly but the engine carries cost model %s", job.Model.Name, cm.Signature())
		}
	}
	job := config.Table1Jobs()[1] // GPT-3 3.35B, PP=4, 30 layers
	eng, stats, err := ReplayEngine(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	cm := eng.CostModel()
	if cm == nil {
		t.Fatalf("%s should plan with calibrated stage imbalance", job.Model.Name)
	}
	scales, err := profile.StageScales(job.Model, job.Parallel.PP)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scales {
		if cm.StageScale[i] != s {
			t.Fatalf("engine stage scale %v != derived %v", cm.StageScale, scales)
		}
	}
	_ = stats
}
