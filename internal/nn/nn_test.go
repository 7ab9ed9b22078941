package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"recycle/internal/tensor"
)

// heap is the nil arena: tensors built on it live on the Go heap.
var heap *tensor.Arena

// clone deep-copies m onto the Go heap.
func clone(m *tensor.Matrix) *tensor.Matrix {
	return &tensor.Matrix{Rows: m.Rows, Cols: m.Cols, Data: slices.Clone(m.Data)}
}

// maxAbsDiff returns the largest absolute element difference of two
// matrices of one shape.
func maxAbsDiff(a, b *tensor.Matrix) float64 {
	var m float64
	for i := range a.Data {
		m = max(m, math.Abs(a.Data[i]-b.Data[i]))
	}
	return m
}

// TestLinearGradientsNumerically verifies the decoupled backward passes
// against central-difference numerical gradients.
func TestLinearGradientsNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(4, 3, rng)
	x := heap.Randn(5, 4, 1, rng)
	target := heap.Randn(5, 3, 1, rng)

	lossOf := func() float64 {
		var st Stash
		loss, _ := MSELoss(heap, l.Forward(heap, x, &st), target)
		return loss
	}
	var st Stash
	y := l.Forward(heap, x, &st)
	_, dy := MSELoss(heap, y, target)
	dx := l.BackwardInput(heap, &st, dy)
	grads := l.BackwardWeight(heap, &st, nil)

	const eps = 1e-6
	// Weight gradient.
	for i := 0; i < len(l.Weight.W.Data); i += 3 {
		orig := l.Weight.W.Data[i]
		l.Weight.W.Data[i] = orig + eps
		up := lossOf()
		l.Weight.W.Data[i] = orig - eps
		down := lossOf()
		l.Weight.W.Data[i] = orig
		num := (up - down) / (2 * eps)
		if diff := math.Abs(num - grads[0].Data[i]); diff > 1e-6 {
			t.Errorf("dW[%d]: numerical %g vs analytic %g", i, num, grads[0].Data[i])
		}
	}
	// Input gradient.
	for i := 0; i < len(x.Data); i += 4 {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := lossOf()
		x.Data[i] = orig - eps
		down := lossOf()
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		if diff := math.Abs(num - dx.Data[i]); diff > 1e-6 {
			t.Errorf("dX[%d]: numerical %g vs analytic %g", i, num, dx.Data[i])
		}
	}
}

// TestStageDecoupledMatchesCoupled checks that running BackwardInput then
// a deferred BackwardWeight produces identical gradients to running them
// back-to-back (the mathematical-equivalence premise of Decoupled
// BackProp, Fig 4).
func TestStageDecoupledMatchesCoupled(t *testing.T) {
	build := func() *Stage {
		return MLPStages(1, 6, 12, 3, 99)[0]
	}
	rng := rand.New(rand.NewSource(5))
	x := heap.Randn(4, 6, 1, rng)
	dy := heap.Randn(4, 3, 0.1, rng)

	// Coupled: BI then BW immediately.
	a := build()
	key := MBKey{Pipeline: 0, MB: 0}
	a.Forward(key, x)
	a.BackwardInput(key, dy)
	ca := a.BackwardWeight(key)

	// Decoupled: interleave another micro-batch before the deferred BW.
	b := build()
	other := MBKey{Pipeline: 1, MB: 3}
	b.Forward(key, x)
	b.Forward(other, heap.Randn(4, 6, 1, rng))
	b.BackwardInput(key, dy)
	b.BackwardInput(other, heap.Randn(4, 3, 0.1, rng))
	b.BackwardWeight(other)
	cb := b.BackwardWeight(key)

	for i := range ca {
		if !tensor.Equal(ca[i], cb[i]) {
			t.Fatalf("deferred BackwardWeight changed gradient %d", i)
		}
	}
}

// TestAdamWRollback checks the arithmetic reversibility the staggered
// optimizer's post-step validation relies on (§5).
func TestAdamWRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewLinear(6, 6, rng)
	params := l.Params()
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
	opt := NewAdamW(1e-3)
	before := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		before[i] = clone(p.W)
	}
	// Two steps, then roll one back.
	opt.Step(params)
	after1 := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		after1[i] = clone(p.W)
	}
	opt.Step(params)
	opt.Rollback(params)
	for i, p := range params {
		if d := maxAbsDiff(p.W, after1[i]); d > 1e-12 {
			t.Errorf("param %d: rollback residual %g after one undo", i, d)
		}
	}
	opt.Rollback(params)
	for i, p := range params {
		if d := maxAbsDiff(p.W, before[i]); d > 1e-12 {
			t.Errorf("param %d: rollback residual %g after full undo", i, d)
		}
	}
}

// TestSGDRollback checks the simpler SGD reversal.
func TestSGDRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	l := NewLinear(3, 3, rng)
	params := l.Params()
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
	before := clone(params[0].W)
	opt := &SGD{LR: 0.1}
	opt.Step(params)
	opt.Rollback(params)
	if d := maxAbsDiff(params[0].W, before); d > 1e-15 {
		t.Fatalf("SGD rollback residual %g", d)
	}
}

// TestValidateFiniteDetectsNaN checks the post-step validation trigger.
func TestValidateFiniteDetectsNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := NewLinear(2, 2, rng)
	if err := ValidateFinite(l.Params()); err != nil {
		t.Fatalf("healthy params flagged: %v", err)
	}
	l.Weight.W.Data[1] = math.NaN()
	if err := ValidateFinite(l.Params()); err == nil {
		t.Fatal("NaN parameter not detected")
	}
}

// Less orders keys canonically (pipeline-major) — the reduction order that
// makes data-parallel gradients bitwise identical regardless of where
// rerouted micro-batches executed.
func (k MBKey) Less(o MBKey) bool {
	if k.Pipeline != o.Pipeline {
		return k.Pipeline < o.Pipeline
	}
	return k.MB < o.MB
}

// TestMBKeyOrdering property-checks the canonical ordering's totality.
func TestMBKeyOrdering(t *testing.T) {
	check := func(p1, m1, p2, m2 uint8) bool {
		a := MBKey{Pipeline: int(p1), MB: int(m1)}
		b := MBKey{Pipeline: int(p2), MB: int(m2)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}
