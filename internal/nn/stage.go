package nn

import (
	"fmt"
	"math/rand"

	"recycle/internal/tensor"
)

// MBKey identifies a micro-batch globally: its home data-parallel pipeline
// and its index within that pipeline's iteration.
type MBKey struct {
	Pipeline int
	MB       int
}

// Stage is one pipeline stage: an ordered list of layers plus the
// per-micro-batch stash bookkeeping. BackwardWeight returns its deferred
// weight gradients instead of storing them: the WeightGradStore (§5) is
// the caller's — in dtrain, one router slot per micro-batch.
type Stage struct {
	// Layers is fixed at NewStage: Params() is built from it once.
	Layers []Layer
	params []*Param

	// arena backs every tensor the stage's passes produce: activations,
	// stashes, input and weight gradients all die at the iteration
	// boundary, where ReleaseStashes recycles it.
	arena tensor.Arena

	stashes map[MBKey][]Stash
	// epoch counts the optimizer steps applied to this replica's
	// parameters — the PipeDream-style version stamp that makes step
	// re-execution idempotent. A re-delivered step whose target epoch the
	// stamp already reached is a no-op (StepOnce).
	epoch int
}

// NewStage wraps layers into a stage.
func NewStage(layers ...Layer) *Stage {
	s := &Stage{Layers: layers, stashes: make(map[MBKey][]Stash)}
	for _, l := range layers {
		s.params = append(s.params, l.Params()...)
	}
	return s
}

// MLPStages builds a PP-stage multi-layer perceptron: each stage is
// Linear+Tanh except the last, which ends with a Linear regression head.
// Deterministic for a given seed.
func MLPStages(pp, inDim, hidden, outDim int, seed int64) []*Stage {
	rng := rand.New(rand.NewSource(seed))
	stages := make([]*Stage, pp)
	for i := 0; i < pp; i++ {
		in, out := hidden, hidden
		if i == 0 {
			in = inDim
		}
		if i == pp-1 {
			out = outDim
		}
		if i == pp-1 {
			stages[i] = NewStage(NewLinear(in, out, rng))
		} else {
			stages[i] = NewStage(NewLinear(in, out, rng), Tanh{})
		}
	}
	return stages
}

// Params returns the stage's parameters in deterministic (layer) order.
// The slice is the stage's own: callers must not modify it.
func (s *Stage) Params() []*Param { return s.params }

// Arena returns the allocator of the stage's per-iteration tensors, for
// callers whose tensors share that lifetime (the micro-batch inputs fed to
// Forward, the loss gradient fed to BackwardInput).
func (s *Stage) Arena() *tensor.Arena { return &s.arena }

// Forward runs the stage's forward pass for one micro-batch, stashing the
// per-layer state.
func (s *Stage) Forward(key MBKey, x *tensor.Matrix) *tensor.Matrix {
	if _, dup := s.stashes[key]; dup {
		panic(fmt.Sprintf("nn: duplicate forward for micro-batch %+v", key))
	}
	st := make([]Stash, len(s.Layers))
	for i, l := range s.Layers {
		x = l.Forward(&s.arena, x, &st[i])
	}
	s.stashes[key] = st
	return x
}

// BackwardInput runs the decoupled input-gradient pass for the micro-batch
// and returns the gradient to send upstream. The stash is retained for the
// deferred BackwardWeight.
func (s *Stage) BackwardInput(key MBKey, dy *tensor.Matrix) *tensor.Matrix {
	st, ok := s.stashes[key]
	if !ok {
		panic(fmt.Sprintf("nn: BackwardInput without forward for %+v", key))
	}
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].BackwardInput(&s.arena, &st[i], dy)
	}
	return dy
}

// BackwardWeight runs the deferred weight-gradient pass and returns the
// micro-batch's contribution: one gradient per parameter, in Params()
// order. Running it again for the same micro-batch recomputes the same
// gradients bit for bit. The activation stash is retained until
// ReleaseStashes at the iteration boundary (PipeDream-style stash
// discipline): a mid-iteration failure can invalidate an already-computed
// BackwardInput/BackwardWeight on a *live* peer (its downstream provenance
// died), and re-executing it needs the stash the old lifecycle would have
// freed here.
func (s *Stage) BackwardWeight(key MBKey) []*tensor.Matrix {
	st, ok := s.stashes[key]
	if !ok {
		panic(fmt.Sprintf("nn: BackwardWeight without forward for %+v", key))
	}
	grads := make([]*tensor.Matrix, 0, len(s.params))
	for i, l := range s.Layers {
		grads = l.BackwardWeight(&s.arena, &st[i], grads)
	}
	if len(grads) != len(s.params) {
		panic("nn: BackwardWeight arity mismatch")
	}
	return grads
}

// PendingStashes returns the number of micro-batch activation stashes the
// stage holds — in-flight work plus completed-but-unreleased work awaiting
// the iteration-boundary ReleaseStashes.
func (s *Stage) PendingStashes() int { return len(s.stashes) }

// DiscardStash drops one micro-batch's activation stash — the effect of a
// forward whose provenance died in a mid-iteration failure, about to be
// re-executed from a re-sent upstream activation. Idempotent.
func (s *Stage) DiscardStash(key MBKey) { delete(s.stashes, key) }

// ReleaseStashes frees every retained activation stash and recycles the
// arena under them — the iteration-boundary acknowledgement of the stash
// lifecycle: once the iteration's optimizer steps are validated, no
// failure can re-request this iteration's backward work, so the stashes
// and every other tensor the stage produced this iteration are garbage.
// Tensors cross stages (an activation is the next stage's stash), so the
// caller releases all stages together, after every executor has stopped.
func (s *Stage) ReleaseStashes() {
	s.stashes = make(map[MBKey][]Stash)
	s.arena.Reset()
}

// StepEpoch returns the number of optimizer steps applied to this
// replica's parameters — the version stamp checked in the optimizer apply
// path.
func (s *Stage) StepEpoch() int { return s.epoch }

// SetStepEpoch overwrites the step-epoch stamp; used when a re-joining
// replica copies a donor's parameters, which carry the donor's epoch.
func (s *Stage) SetStepEpoch(e int) { s.epoch = e }

// StepOnce applies the optimizer step exactly once per target epoch: if
// the stamp already reached target the parameters are left untouched and
// StepOnce reports false (the idempotent no-op of a re-executed step);
// otherwise the step is applied and the stamp advances to target.
func (s *Stage) StepOnce(opt Optimizer, target int) bool {
	if s.epoch >= target {
		return false
	}
	opt.Step(s.params)
	s.epoch = target
	return true
}

// RegressStepEpoch walks the stamp back n steps — the epoch half of an
// iteration rollback, paired with the optimizer's Rollback calls.
func (s *Stage) RegressStepEpoch(n int) {
	s.epoch -= n
	if s.epoch < 0 {
		s.epoch = 0
	}
}

// Reset clears all stashes (used when an iteration is aborted and replayed
// after a mid-iteration failure). The arena is left alone: peers may still
// hold tensors this stage produced.
func (s *Stage) Reset() {
	s.stashes = make(map[MBKey][]Stash)
}

// ReduceContributions sums per-micro-batch weight gradients —
// contribs[k][i] is micro-batch k's gradient of the i-th parameter — in
// the order given and scales by 1/len(contribs), writing the mean into the
// stage's parameter gradient accumulators. Floating-point addition is
// order-sensitive: the caller passes the contributions in canonical
// MBKey.Less order, which is what makes adapted (rerouted) execution
// produce *bitwise* the same gradients as fault-free execution.
func (s *Stage) ReduceContributions(contribs [][]*tensor.Matrix) {
	params := s.params
	for _, p := range params {
		p.ZeroGrad()
	}
	for _, c := range contribs {
		for i, g := range c {
			tensor.AddInPlace(params[i].Grad, g)
		}
	}
	inv := 1 / float64(len(contribs))
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] *= inv
		}
	}
}
