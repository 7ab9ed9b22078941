package nn

import (
	"fmt"
	"math"
)

// AdamW is the decoupled-weight-decay Adam optimizer (Loshchilov &
// Hutter), the optimizer the paper calls out as reversible (§5). It
// updates parameters from their accumulated gradients and can reverse its
// latest step — the arithmetic reversibility ReCycle's post-step
// validation depends on: with the Staggered Optimizer, numerical-stability
// validation moves after the step, and a downstream stage failing
// validation rolls every stage back without extra memory.
type AdamW struct {
	LR, Beta1, Beta2, Eps, WeightDecay float64

	t    int
	m, v map[*Param][]float64
}

// NewAdamW returns AdamW with the usual defaults.
func NewAdamW(lr float64) *AdamW {
	return &AdamW{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0.01,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64)}
}

// Step applies one update to params from their gradients.
func (o *AdamW) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, v := o.state(p)
		for i := range p.W.Data {
			g := p.Grad.Data[i]
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.W.Data[i] = p.W.Data[i]*(1-o.LR*o.WeightDecay) - o.LR*mh/(math.Sqrt(vh)+o.Eps)
		}
	}
}

// Rollback undoes the most recent Step for the same parameters (the
// gradients must be unchanged since that Step) by inverting the AdamW
// arithmetic: the update direction is recomputed from the post-step moments, the weight
// division undoes the decay, and the moment recurrences are solved for
// their previous values using the (unchanged) gradients.
func (o *AdamW) Rollback(params []*Param) {
	if o.t == 0 {
		panic("nn: AdamW rollback before any step")
	}
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, v := o.state(p)
		for i := range p.W.Data {
			g := p.Grad.Data[i]
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.W.Data[i] = (p.W.Data[i] + o.LR*mh/(math.Sqrt(vh)+o.Eps)) / (1 - o.LR*o.WeightDecay)
			m[i] = (m[i] - (1-o.Beta1)*g) / o.Beta1
			v[i] = (v[i] - (1-o.Beta2)*g*g) / o.Beta2
		}
	}
	o.t--
}

// CopyStateFrom clones the moment estimates and step count from src,
// mapping srcParams[i] onto dstParams[i] — the point-to-point state copy a
// re-joining worker receives from its data-parallel peer (§3.4).
func (o *AdamW) CopyStateFrom(src *AdamW, srcParams, dstParams []*Param) {
	o.t = src.t
	o.LR, o.Beta1, o.Beta2, o.Eps, o.WeightDecay = src.LR, src.Beta1, src.Beta2, src.Eps, src.WeightDecay
	for i, sp := range srcParams {
		dm, dv := o.state(dstParams[i])
		sm, sv := src.state(sp)
		copy(dm, sm)
		copy(dv, sv)
	}
}

func (o *AdamW) state(p *Param) ([]float64, []float64) {
	if _, ok := o.m[p]; !ok {
		o.m[p] = make([]float64, len(p.W.Data))
		o.v[p] = make([]float64, len(p.W.Data))
	}
	return o.m[p], o.v[p]
}

// ValidateFinite reports whether every parameter and gradient is finite —
// the per-stage numerical-stability check run after the staggered step.
func ValidateFinite(params []*Param) error {
	for _, p := range params {
		for _, v := range p.W.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: parameter %s is not finite", p.Name)
			}
		}
		for _, v := range p.Grad.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: gradient of %s is not finite", p.Name)
			}
		}
	}
	return nil
}
