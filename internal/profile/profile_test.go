package profile

import (
	"errors"
	"testing"

	"recycle/internal/config"
	"recycle/internal/schedule"
)

// TestAnalyticSlotRatios checks the quantization preserves the paper's
// TF : TBInput : TBWeight = 1 : 1 : 1 slot model.
func TestAnalyticSlotRatios(t *testing.T) {
	for _, job := range config.Table1Jobs() {
		st, err := Analytic(job)
		if err != nil {
			t.Fatalf("%s: %v", job.Model.Name, err)
		}
		if st.TF != 1024 || st.TBInput != st.TF || st.TBWeight != st.TF {
			t.Errorf("%s: TF=%d TBI=%d TBW=%d, want 1024 each", job.Model.Name, st.TF, st.TBInput, st.TBWeight)
		}
		if st.TOpt <= 0 || st.UnitSeconds <= 0 {
			t.Errorf("%s: bad TOpt=%d unit=%g", job.Model.Name, st.TOpt, st.UnitSeconds)
		}
		if len(st.MemCapPerStage) != job.Parallel.PP {
			t.Errorf("%s: %d memory caps for PP=%d", job.Model.Name, len(st.MemCapPerStage), job.Parallel.PP)
		}
		for _, c := range st.MemCapPerStage {
			if c < job.Parallel.PP {
				t.Errorf("%s: cap %d below 1F1B minimum %d", job.Model.Name, c, job.Parallel.PP)
			}
		}
	}
}

// TestStageScalesFromLayerSplit pins the calibrated imbalance derivation:
// GPT-3 3.35B at PP=4 splits its 30 layers 8,8,7,7, so stages 2 and 3 run
// at 7/8 of the widest stage's time; evenly divisible splits (Medium at
// PP=2, 6.7B at PP=8) yield no cost model at all.
func TestStageScalesFromLayerSplit(t *testing.T) {
	scales, err := StageScales(config.GPT3_3_35B, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 7.0 / 8, 7.0 / 8}
	if len(scales) != len(want) {
		t.Fatalf("scales %v, want %v", scales, want)
	}
	for i := range want {
		if scales[i] != want[i] {
			t.Fatalf("stage %d scale %g, want %g", i, scales[i], want[i])
		}
	}
	for _, tc := range []struct {
		m  config.Model
		pp int
	}{{config.GPT3Medium, 2}, {config.GPT3_6_7B, 8}} {
		s, err := StageScales(tc.m, tc.pp)
		if err != nil {
			t.Fatal(err)
		}
		if s != nil {
			t.Fatalf("%s PP=%d splits evenly but got scales %v", tc.m.Name, tc.pp, s)
		}
	}
	if _, err := StageScales(config.GPT3Medium, 25); err == nil {
		t.Fatal("more stages than layers was not rejected")
	}
}

// TestCalibratedCost checks the cost model wiring: the uneven Table 1 job
// gets a model whose narrow stages run faster than the widest, the even
// jobs plan homogeneous (nil), and the scaled durations feed through Of.
func TestCalibratedCost(t *testing.T) {
	jobs := config.Table1Jobs()
	uneven := jobs[1] // GPT-3 3.35B, PP=4
	stats, err := Analytic(uneven)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := CalibratedCost(uneven, stats)
	if err != nil {
		t.Fatal(err)
	}
	if cm == nil {
		t.Fatalf("%s should plan with stage imbalance", uneven.Model.Name)
	}
	wide := cm.Of(schedule.Worker{Stage: 0, Pipeline: 0}, schedule.F)
	narrow := cm.Of(schedule.Worker{Stage: 3, Pipeline: 0}, schedule.F)
	if narrow >= wide {
		t.Fatalf("narrow stage F=%d not faster than widest F=%d", narrow, wide)
	}
	if want := int64(float64(stats.TF)*7.0/8 + 0.5); narrow != want {
		t.Fatalf("narrow stage F=%d, want %d", narrow, want)
	}
	for _, job := range []config.Job{jobs[0], jobs[2]} {
		st, err := Analytic(job)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := CalibratedCost(job, st)
		if err != nil {
			t.Fatal(err)
		}
		if cm != nil {
			t.Fatalf("%s splits evenly but got stage scales %g", job.Model.Name, cm.StageScale)
		}
	}
}

// TestOOMConfigRejected checks an impossible configuration errors.
func TestOOMConfigRejected(t *testing.T) {
	job := config.Job{
		Model:    config.GPT3_145_6B,
		Parallel: config.Parallelism{DP: 2, PP: 4, TP: 1},
		Batch:    config.Batch{GlobalBatch: 64, MicroBatch: 1},
		Hardware: config.A100x1,
	}
	_, err := Analytic(job)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("want ErrOOM, got %v", err)
	}
}

// TestUnitStats checks the figure-gallery stats.
func TestUnitStats(t *testing.T) {
	u := Unit()
	d := u.Durations()
	if d.F != 1 || d.BInput != 1 || d.BWeight != 1 || d.Comm != 0 {
		t.Fatalf("unit durations wrong: %+v", d)
	}
}
