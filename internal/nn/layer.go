// Package nn is the neural-network substrate for the live training runtime
// (internal/dtrain): layers with *decoupled* backward passes — separate
// gradient-w.r.t.-input (BackwardInput) and gradient-w.r.t.-weights
// (BackwardWeight) computations, exactly the split ReCycle's Decoupled
// BackProp schedules independently (§3.2, Fig 4) — plus the AdamW
// optimizer with the arithmetically reversible rollback the Staggered
// Optimizer's post-step validation relies on (§5).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"recycle/internal/tensor"
)

// Param is one trainable parameter tensor with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Stash is the per-micro-batch state a layer keeps between its forward
// pass and the (possibly deferred) backward passes: the layer input and,
// once BackwardInput has run, the upstream gradient BackwardWeight needs.
type Stash struct {
	X  *tensor.Matrix
	DY *tensor.Matrix
}

// Layer is one differentiable operator with decoupled backward passes.
// Every tensor a pass produces is carved from ar (nil: the Go heap), so the
// caller decides how long a micro-batch's intermediates live.
type Layer interface {
	// Forward computes the layer output and fills the stash the backward
	// passes will need.
	Forward(ar *tensor.Arena, x *tensor.Matrix, st *Stash) *tensor.Matrix
	// BackwardInput computes dL/dx from dL/dy and records dy in the stash
	// for the deferred BackwardWeight.
	BackwardInput(ar *tensor.Arena, st *Stash, dy *tensor.Matrix) *tensor.Matrix
	// BackwardWeight computes this layer's parameter gradients for the
	// stashed micro-batch and appends them to grads in Params() order,
	// without touching the shared accumulators (the caller reduces
	// contributions in canonical order for bitwise-deterministic data
	// parallelism).
	BackwardWeight(ar *tensor.Arena, st *Stash, grads []*tensor.Matrix) []*tensor.Matrix
	// Params returns the layer's parameters (empty for stateless layers).
	Params() []*Param
}

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	Weight *Param
	Bias   *Param
}

// NewLinear initializes a Linear layer with Xavier-scaled weights from rng.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	std := math.Sqrt(2.0 / float64(in+out))
	var heap *tensor.Arena // parameters outlive every iteration
	return &Linear{
		Weight: &Param{Name: fmt.Sprintf("linear%dx%d.w", in, out), W: heap.Randn(in, out, std, rng), Grad: tensor.New(in, out)},
		Bias:   &Param{Name: fmt.Sprintf("linear%dx%d.b", in, out), W: tensor.New(1, out), Grad: tensor.New(1, out)},
	}
}

// Forward implements Layer.
func (l *Linear) Forward(ar *tensor.Arena, x *tensor.Matrix, st *Stash) *tensor.Matrix {
	*st = Stash{X: x}
	return ar.AddRowVector(ar.MatMul(x, l.Weight.W), l.Bias.W)
}

// BackwardInput implements Layer: dx = dy @ Wᵀ.
func (l *Linear) BackwardInput(ar *tensor.Arena, st *Stash, dy *tensor.Matrix) *tensor.Matrix {
	st.DY = dy
	return ar.MatMulBT(dy, l.Weight.W)
}

// BackwardWeight implements Layer: dW = xᵀ @ dy, db = colsum(dy).
func (l *Linear) BackwardWeight(ar *tensor.Arena, st *Stash, grads []*tensor.Matrix) []*tensor.Matrix {
	if st.DY == nil {
		panic("nn: BackwardWeight before BackwardInput")
	}
	return append(grads, ar.MatMulAT(st.X, st.DY), ar.ColSums(st.DY))
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Tanh is the elementwise tanh activation.
type Tanh struct{}

// Forward implements Layer.
func (Tanh) Forward(ar *tensor.Arena, x *tensor.Matrix, st *Stash) *tensor.Matrix {
	y := ar.Apply(x, math.Tanh)
	*st = Stash{X: y} // stash the output: tanh' = 1 - y^2
	return y
}

// BackwardInput implements Layer.
func (Tanh) BackwardInput(ar *tensor.Arena, st *Stash, dy *tensor.Matrix) *tensor.Matrix {
	st.DY = dy
	grad := ar.Apply(st.X, func(y float64) float64 { return 1 - y*y })
	return ar.Hadamard(dy, grad)
}

// BackwardWeight implements Layer (stateless).
func (Tanh) BackwardWeight(_ *tensor.Arena, _ *Stash, grads []*tensor.Matrix) []*tensor.Matrix {
	return grads
}

// Params implements Layer.
func (Tanh) Params() []*Param { return nil }

// MSELoss is 0.5 * mean squared error, returning the loss value and the
// gradient w.r.t. the prediction (carved from ar).
func MSELoss(ar *tensor.Arena, pred, target *tensor.Matrix) (float64, *tensor.Matrix) {
	diff := ar.Sub(pred, target)
	n := float64(len(diff.Data))
	var loss float64
	for _, v := range diff.Data {
		loss += 0.5 * v * v
	}
	return loss / n, ar.Scale(diff, 1/n)
}
