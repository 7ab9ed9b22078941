package nn

import (
	"fmt"
	"math/rand"
	"sync"

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

	// slab holds the iteration's activation stashes and the gradient
	// lists BackwardWeight returns. Like the arena's chunks it is taken
	// from a pool on the first Forward and handed back by ReleaseStashes,
	// so an idle stage holds none.
	slab *slab
	// epoch counts the optimizer steps applied to this replica's
	// parameters — the PipeDream-style version stamp that makes step
	// re-execution idempotent. A re-delivered step whose target epoch the
	// stamp already reached is a no-op (StepOnce).
	epoch int
}

// NewStage wraps layers into a stage.
func NewStage(layers ...Layer) *Stage {
	s := &Stage{Layers: layers}
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
	if s.slab == nil {
		s.slab = slabPool.Get().(*slab)
	}
	cell := s.slab.cell(key)
	if *cell != nil {
		panic(fmt.Sprintf("nn: duplicate forward for micro-batch %+v", key))
	}
	st := carve(&s.slab.stash, len(s.Layers))
	for i, l := range s.Layers {
		x = l.Forward(&s.arena, x, &st[i])
	}
	*cell = st
	s.slab.held++
	return x
}

// BackwardInput runs the decoupled input-gradient pass for the micro-batch
// and returns the gradient to send upstream. The stash is retained for the
// deferred BackwardWeight.
func (s *Stage) BackwardInput(key MBKey, dy *tensor.Matrix) *tensor.Matrix {
	st := s.slab.lookup(key)
	if st == nil {
		panic(fmt.Sprintf("nn: BackwardInput without forward for %+v", key))
	}
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dy = s.Layers[i].BackwardInput(&s.arena, &st[i], dy)
	}
	return dy
}

// BackwardWeight runs the deferred weight-gradient pass and returns the
// micro-batch's contribution: one gradient per parameter, in Params()
// order, in a list that lives until ReleaseStashes. Running it again for
// the same micro-batch recomputes the same gradients bit for bit, into a
// fresh list: a peer may still be reading the earlier one. The activation
// stash is retained until ReleaseStashes at the iteration boundary
// (PipeDream-style stash discipline): a mid-iteration failure can
// invalidate an already-computed
// BackwardInput/BackwardWeight on a *live* peer (its downstream provenance
// died), and re-executing it needs the stash the old lifecycle would have
// freed here.
func (s *Stage) BackwardWeight(key MBKey) []*tensor.Matrix {
	st := s.slab.lookup(key)
	if st == nil {
		panic(fmt.Sprintf("nn: BackwardWeight without forward for %+v", key))
	}
	grads := carve(&s.slab.grads, len(s.params))[:0]
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
func (s *Stage) PendingStashes() int {
	if s.slab == nil {
		return 0
	}
	return s.slab.held
}

// DiscardStash drops one micro-batch's activation stash — the effect of a
// forward whose provenance died in a mid-iteration failure, about to be
// re-executed from a re-sent upstream activation. Idempotent.
func (s *Stage) DiscardStash(key MBKey) {
	if st := s.slab.lookup(key); st != nil {
		*s.slab.cell(key) = nil
		s.slab.held--
	}
}

// ReleaseStashes frees every retained activation stash and recycles the
// arena under them — the iteration-boundary acknowledgement of the stash
// lifecycle: once the iteration's optimizer steps are validated, no
// failure can re-request this iteration's backward work, so the stashes
// and every other tensor the stage produced this iteration are garbage.
// Tensors cross stages (an activation is the next stage's stash), so the
// caller releases all stages together, after every executor has stopped.
// The slab goes back to its pool, emptied.
func (s *Stage) ReleaseStashes() {
	if sl := s.slab; sl != nil {
		sl.forget()
		clear(sl.stash)
		clear(sl.grads)
		sl.stash, sl.grads = sl.stash[:0], sl.grads[:0]
		slabPool.Put(sl)
		s.slab = nil
	}
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
func (s *Stage) StepOnce(opt *AdamW, target int) bool {
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
// after a mid-iteration failure). The arena and the slab's carved cells are
// left alone: peers may still hold tensors and gradient lists this stage
// produced.
func (s *Stage) Reset() {
	if s.slab != nil {
		s.slab.forget()
	}
}

// slab is one stage's per-iteration stash table: rows[home][mb] is the
// micro-batch's per-layer stash (nil when none is held), carved out of
// stash, and every BackwardWeight carves its gradient list out of grads.
// Carving only bumps, so a re-forward after DiscardStash or Reset and a
// re-executed BackwardWeight take fresh cells and never overwrite what a
// peer may still read; the rows and both backings keep their capacity in
// the pool, so a warm iteration grows none of them.
type slab struct {
	rows  [][][]Stash
	stash []Stash
	grads []*tensor.Matrix
	held  int // non-nil cells of rows
}

var slabPool = sync.Pool{New: func() any { return new(slab) }}

// cell returns the stash cell of key, growing rows to reach it.
func (sl *slab) cell(key MBKey) *[]Stash {
	for len(sl.rows) <= key.Pipeline {
		sl.rows = append(sl.rows, nil)
	}
	row := &sl.rows[key.Pipeline]
	for len(*row) <= key.MB {
		*row = append(*row, nil)
	}
	return &(*row)[key.MB]
}

// lookup returns the stash held for key, nil when there is none (a nil
// slab holds none).
func (sl *slab) lookup(key MBKey) []Stash {
	if sl == nil || key.Pipeline < 0 || key.Pipeline >= len(sl.rows) || key.MB < 0 || key.MB >= len(sl.rows[key.Pipeline]) {
		return nil
	}
	return sl.rows[key.Pipeline][key.MB]
}

// forget drops every stash cell; what was carved stays carved.
func (sl *slab) forget() {
	for _, row := range sl.rows {
		clear(row)
	}
	sl.held = 0
}

// carve bumps n zeroed cells off buf. A full buf is replaced by a larger
// empty one: cells already carved keep the old backing, and the new one is
// what the pool keeps.
func carve[T any](buf *[]T, n int) []T {
	b := *buf
	if b == nil || cap(b)-len(b) < n {
		b = make([]T, 0, max(2*cap(b), n, 16))
	}
	*buf = b[:len(b)+n]
	return b[len(b) : len(b)+n : len(b)+n]
}

// ReduceContributions sums per-micro-batch weight gradients —
// contribs[k][i] is micro-batch k's gradient of the i-th parameter — in
// the order given and scales by 1/len(contribs), writing the mean into the
// stage's parameter gradient accumulators. Floating-point addition is
// order-sensitive: the caller passes the contributions in canonical
// (home pipeline, micro-batch) order, which is what makes adapted
// (rerouted) execution produce *bitwise* the same gradients as fault-free
// execution.
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
