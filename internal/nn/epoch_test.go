package nn

import (
	"math/rand"
	"testing"
)

// fillGrads writes fresh pseudo-random values into every parameter's
// gradient accumulator, as if an all-reduce had just broadcast them.
func fillGrads(rng *rand.Rand, st *Stage) {
	for _, p := range st.Params() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = rng.NormFloat64()
		}
	}
}

// snapshotParams deep-copies the stage's parameter values.
func snapshotParams(st *Stage) [][]float64 {
	var out [][]float64
	for _, p := range st.Params() {
		out = append(out, append([]float64(nil), p.W.Data...))
	}
	return out
}

// sameBits compares a snapshot against the stage's current parameters
// bitwise (exact float64 equality, no tolerance).
func sameBits(snap [][]float64, st *Stage) bool {
	for pi, p := range st.Params() {
		for i, v := range p.W.Data {
			if snap[pi][i] != v {
				return false
			}
		}
	}
	return true
}

// TestStepOnceIdempotentProperty quick-checks the step-epoch invariant the
// chaos harness leans on: across random stage shapes, target epochs and
// gradient contents, a re-delivered optimizer step whose target the
// stamp already covers leaves the parameters bit-identical — even when
// the gradient accumulators have since been scribbled over — while a
// rollback (RegressStepEpoch) re-arms the apply path.
func TestStepOnceIdempotentProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 50
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		pp := 1 + rng.Intn(4)
		inDim := 2 + rng.Intn(6)
		hidden := 2 + rng.Intn(8)
		outDim := 1 + rng.Intn(5)
		stages := MLPStages(pp, inDim, hidden, outDim, rng.Int63())
		target := 1 + rng.Intn(5)
		for si, st := range stages {
			opt := NewAdamW(1e-3)
			st.SetStepEpoch(target - 1)
			fillGrads(rng, st)
			before := snapshotParams(st)
			if !st.StepOnce(opt, target) {
				t.Fatalf("trial %d stage %d: first StepOnce(target=%d) did not apply", trial, si, target)
			}
			if sameBits(before, st) {
				t.Fatalf("trial %d stage %d: applied step left parameters unchanged", trial, si)
			}
			if got := st.StepEpoch(); got != target {
				t.Fatalf("trial %d stage %d: epoch %d after apply, want %d", trial, si, got, target)
			}
			applied := snapshotParams(st)
			// Re-deliveries with the same target — possibly after the
			// gradient accumulators changed — are exact no-ops.
			for k := 0; k < 3; k++ {
				fillGrads(rng, st)
				if st.StepOnce(opt, target) {
					t.Fatalf("trial %d stage %d: re-delivered step %d applied", trial, si, k)
				}
				if !sameBits(applied, st) {
					t.Fatalf("trial %d stage %d: re-delivered step %d perturbed parameters", trial, si, k)
				}
			}
			// A stale target (an even older re-delivery) is also a no-op.
			if st.StepOnce(opt, target-1) || !sameBits(applied, st) {
				t.Fatalf("trial %d stage %d: stale-target step applied", trial, si)
			}
			// The rollback half: regressing the stamp re-arms the step.
			st.RegressStepEpoch(1)
			if got := st.StepEpoch(); got != target-1 {
				t.Fatalf("trial %d stage %d: epoch %d after regress, want %d", trial, si, got, target-1)
			}
			if !st.StepOnce(opt, target) {
				t.Fatalf("trial %d stage %d: StepOnce after regress did not apply", trial, si)
			}
		}
	}
}

// TestStepEpochStampBasics pins the stamp plumbing the runtime relies on:
// SetStepEpoch round-trips (the rejoin donor copy), RegressStepEpoch floors
// at zero, and Reset — the mid-iteration replay path — clears stashes and
// gradients but never the epoch, since applied steps stay durable across an
// aborted iteration.
func TestStepEpochStampBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	st := NewStage(NewLinear(3, 2, rng))
	if got := st.StepEpoch(); got != 0 {
		t.Fatalf("fresh stage epoch = %d, want 0", got)
	}
	st.SetStepEpoch(5)
	if got := st.StepEpoch(); got != 5 {
		t.Fatalf("SetStepEpoch(5) read back %d", got)
	}
	st.RegressStepEpoch(9)
	if got := st.StepEpoch(); got != 0 {
		t.Fatalf("RegressStepEpoch past zero left epoch %d, want 0", got)
	}
	st.SetStepEpoch(3)
	st.Reset()
	if got := st.StepEpoch(); got != 3 {
		t.Fatalf("Reset cleared the step epoch: %d, want 3", got)
	}
}
