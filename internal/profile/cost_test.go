package profile

import (
	"testing"

	"recycle/internal/schedule"
)

func TestCostModelUniformReproducesBase(t *testing.T) {
	s := Stats{TF: 1024, TBInput: 900, TBWeight: 700, TOpt: 300, TComm: 50, UnitSeconds: 1e-6}
	cm := UniformCost(s)
	d := s.Durations()
	for stage := 0; stage < 4; stage++ {
		for pipe := 0; pipe < 3; pipe++ {
			w := schedule.Worker{Stage: stage, Pipeline: pipe}
			for _, ty := range []schedule.OpType{schedule.F, schedule.B, schedule.BInput, schedule.BWeight, schedule.Optimizer} {
				if got, want := cm.Of(w, ty), d.Of(ty); got != want {
					t.Fatalf("uniform cost %s on %s = %d, want base %d", ty, w, got, want)
				}
			}
		}
	}
}

func TestCostModelWorkerScale(t *testing.T) {
	cm := UniformCost(Unit())
	slow := schedule.Worker{Stage: 1, Pipeline: 0}
	cm2 := cm.WithWorkerScale(slow, 2)
	if cm.Of(slow, schedule.F) != 1 {
		t.Fatal("WithWorkerScale mutated the receiver")
	}
	if got := cm2.Of(slow, schedule.F); got != 2 {
		t.Fatalf("2x straggler F = %d, want 2", got)
	}
	if got := cm2.Of(schedule.Worker{Stage: 1, Pipeline: 1}, schedule.F); got != 1 {
		t.Fatalf("peer F = %d, want 1", got)
	}
	if got := cm2.WithWorkerScale(slow, 1).Of(slow, schedule.F); got != 1 {
		t.Fatalf("cleared straggler F = %d, want 1", got)
	}
	// Coupled B scales the combined backward.
	if got := cm2.Of(slow, schedule.B); got != 4 {
		t.Fatalf("2x straggler coupled B = %d, want 4", got)
	}
	// The optimizer never scales: its span is the all-reduce collective,
	// not local compute.
	if got := cm2.Of(slow, schedule.Optimizer); got != 1 {
		t.Fatalf("straggler optimizer = %d, want unscaled 1", got)
	}
}

func TestCostModelStageScaleAndFloor(t *testing.T) {
	cm := UniformCost(Unit()).WithStageScale([]float64{1, 2.5})
	w0 := schedule.Worker{Stage: 0, Pipeline: 0}
	w1 := schedule.Worker{Stage: 1, Pipeline: 0}
	if got := cm.Of(w0, schedule.F); got != 1 {
		t.Fatalf("stage 0 F = %d, want 1", got)
	}
	if got := cm.Of(w1, schedule.F); got != 3 { // round(1*2.5) = 3 (round half away from zero)
		t.Fatalf("stage 1 F = %d, want 3", got)
	}
	// A fast spare never rounds to zero.
	fast := UniformCost(Unit()).WithWorkerScale(w0, 0.1)
	if got := fast.Of(w0, schedule.F); got != 1 {
		t.Fatalf("fast spare F = %d, want floor 1", got)
	}
	// Zero base durations stay zero regardless of scale.
	if got := fast.Of(w0, schedule.OpType(99)); got != 0 {
		t.Fatalf("unknown op type cost = %d, want 0", got)
	}
}

func TestCostModelSignatureDeterministic(t *testing.T) {
	a := UniformCost(Unit()).
		WithWorkerScale(schedule.Worker{Stage: 1, Pipeline: 2}, 2).
		WithWorkerScale(schedule.Worker{Stage: 0, Pipeline: 1}, 1.5)
	b := UniformCost(Unit()).
		WithWorkerScale(schedule.Worker{Stage: 0, Pipeline: 1}, 1.5).
		WithWorkerScale(schedule.Worker{Stage: 1, Pipeline: 2}, 2)
	if a.Signature() != b.Signature() {
		t.Fatalf("insertion order leaks into signature:\n%s\n%s", a.Signature(), b.Signature())
	}
	if a.Signature() == UniformCost(Unit()).Signature() {
		t.Fatal("straggler marks do not change the signature")
	}
	var nilModel *CostModel
	if nilModel.Signature() != "" {
		t.Fatal("nil model must have the empty signature")
	}
}
