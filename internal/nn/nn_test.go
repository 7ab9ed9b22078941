package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

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

// TestStashSlabReuseMatchesFreshStage runs one iteration's worth of
// micro-batches through a stage with the failure path's churn — a forward
// discarded and re-run, a weight gradient re-executed — releases it, and
// runs a second iteration on the slab and arena it handed back: every
// gradient must be bit-equal to a fresh stage's, the stash count must track
// each step, and the guards must still panic.
func TestStashSlabReuseMatchesFreshStage(t *testing.T) {
	build := func() *Stage { return MLPStages(2, 6, 12, 3, 99)[0] }
	rng := rand.New(rand.NewSource(11))
	var keys []MBKey
	xs, dys := map[MBKey]*tensor.Matrix{}, map[MBKey]*tensor.Matrix{}
	for home := 0; home < 2; home++ {
		for mb := 0; mb < 4; mb++ {
			k := MBKey{Pipeline: home, MB: mb}
			keys = append(keys, k)
			xs[k], dys[k] = heap.Randn(4, 6, 1, rng), heap.Randn(4, 12, 0.1, rng)
		}
	}
	// iteration runs every key and returns heap copies of its gradients.
	iteration := func(st *Stage, churn bool) [][]*tensor.Matrix {
		for i, k := range keys {
			st.Forward(k, xs[k])
			if got := st.PendingStashes(); got != i+1 {
				t.Fatalf("%d stashes after %d forwards", got, i+1)
			}
		}
		if churn {
			victim := keys[3]
			st.DiscardStash(victim)
			st.DiscardStash(victim) // idempotent
			if got := st.PendingStashes(); got != len(keys)-1 {
				t.Fatalf("%d stashes after a discard, want %d", got, len(keys)-1)
			}
			mustPanic(t, "backward after discard", func() { st.BackwardInput(victim, dys[victim]) })
			st.Forward(victim, xs[victim])
			mustPanic(t, "duplicate forward", func() { st.Forward(victim, xs[victim]) })
		}
		var out [][]*tensor.Matrix
		for _, k := range keys {
			st.BackwardInput(k, dys[k])
			g := st.BackwardWeight(k)
			if churn {
				again := st.BackwardWeight(k)
				if &again[0] == &g[0] {
					t.Fatal("a re-executed BackwardWeight reused the earlier gradient list")
				}
				for i := range g {
					if !tensor.Equal(g[i], again[i]) {
						t.Fatalf("re-executed gradient %d of %+v differs", i, k)
					}
				}
			}
			var cp []*tensor.Matrix
			for _, m := range g {
				cp = append(cp, clone(m))
			}
			out = append(out, cp)
		}
		if got := st.PendingStashes(); got != len(keys) {
			t.Fatalf("%d stashes after the backward passes, want %d", got, len(keys))
		}
		return out
	}
	want := iteration(build(), false)
	st := build()
	for round, churn := range []bool{true, false, true} {
		got := iteration(st, churn)
		st.ReleaseStashes()
		if n := st.PendingStashes(); n != 0 {
			t.Fatalf("round %d: %d stashes after ReleaseStashes", round, n)
		}
		for i := range want {
			for j := range want[i] {
				if !tensor.Equal(got[i][j], want[i][j]) {
					t.Fatalf("round %d: gradient %d of %+v differs from a fresh stage's", round, j, keys[i])
				}
			}
		}
	}
	mustPanic(t, "weight gradient without forward", func() { st.BackwardWeight(keys[0]) })
	st.Forward(keys[0], xs[keys[0]])
	st.Reset()
	if n := st.PendingStashes(); n != 0 {
		t.Fatalf("%d stashes after Reset", n)
	}
	st.Forward(keys[0], xs[keys[0]]) // Reset forgot the stash: no duplicate
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}
