package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"recycle/internal/tensor"
)

// heap is the nil arena: tensors built on it live on the Go heap.
var heap *tensor.Arena

// gradsOf picks one micro-batch's gradients out of a drained store.
func gradsOf(cs []Contribution, key MBKey) []*tensor.Matrix {
	for _, c := range cs {
		if c.Key == key {
			return c.Grads
		}
	}
	return nil
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
	a.BackwardWeight(key)
	ca := gradsOf(a.DrainStore(), key)

	// Decoupled: interleave another micro-batch before the deferred BW.
	b := build()
	other := MBKey{Pipeline: 1, MB: 3}
	b.Forward(key, x)
	b.Forward(other, heap.Randn(4, 6, 1, rng))
	b.BackwardInput(key, dy)
	b.BackwardInput(other, heap.Randn(4, 3, 0.1, rng))
	b.BackwardWeight(other)
	b.BackwardWeight(key)
	cb := gradsOf(b.DrainStore(), key)

	for i := range ca {
		if !tensor.Equal(ca[i], cb[i]) {
			t.Fatalf("deferred BackwardWeight changed gradient %d", i)
		}
	}
}

// TestReduceContributionsOrderInvariant checks the canonical reduction:
// the same contributions arriving in different orders reduce to
// bitwise-identical gradients, and a duplicated or missing micro-batch is
// rejected.
func TestReduceContributionsOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func() (*Stage, []Contribution) {
		st := MLPStages(1, 4, 8, 2, 3)[0]
		var contribs []Contribution
		for k := 0; k < 3; k++ {
			for j := 0; j < 4; j++ {
				var gs []*tensor.Matrix
				for _, p := range st.Params() {
					g := heap.Randn(p.W.Rows, p.W.Cols, 1, rand.New(rand.NewSource(int64(k*100+j))))
					gs = append(gs, g)
				}
				contribs = append(contribs, Contribution{Key: MBKey{Pipeline: k, MB: j}, Grads: gs})
			}
		}
		return st, contribs
	}
	a, ca := mk()
	b, cb := mk()
	rng.Shuffle(len(cb), func(i, j int) { cb[i], cb[j] = cb[j], cb[i] })
	if err := a.ReduceContributions(ca, 12); err != nil {
		t.Fatal(err)
	}
	if err := b.ReduceContributions(cb, 12); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if !tensor.Equal(pa[i].Grad, pb[i].Grad) {
			t.Fatalf("canonical reduction not deterministic for param %d", i)
		}
	}
	if err := a.ReduceContributions(ca[:11], 12); err == nil {
		t.Fatal("a missing contribution was reduced")
	}
	ca[11] = ca[3]
	if err := a.ReduceContributions(ca, 12); err == nil {
		t.Fatal("a duplicate contribution was reduced")
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
		before[i] = p.W.Clone()
	}
	// Two steps, then roll one back.
	opt.Step(params)
	after1 := make([]*tensor.Matrix, len(params))
	for i, p := range params {
		after1[i] = p.W.Clone()
	}
	opt.Step(params)
	opt.Rollback(params)
	for i, p := range params {
		if d := tensor.MaxAbsDiff(p.W, after1[i]); d > 1e-12 {
			t.Errorf("param %d: rollback residual %g after one undo", i, d)
		}
	}
	opt.Rollback(params)
	for i, p := range params {
		if d := tensor.MaxAbsDiff(p.W, before[i]); d > 1e-12 {
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
	before := params[0].W.Clone()
	opt := &SGD{LR: 0.1}
	opt.Step(params)
	opt.Rollback(params)
	if d := tensor.MaxAbsDiff(params[0].W, before); d > 1e-15 {
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
