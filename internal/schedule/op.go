package schedule

import (
	"fmt"
	"sort"
)

// OpType is the computation phase c of an operation. The paper uses
// c ∈ {F, B_input, B_weight}; we add the coupled backward (B) used when
// Decoupled BackProp is disabled, and the per-stage optimizer step.
type OpType int8

const (
	// F is a forward pass of one micro-batch through one stage.
	F OpType = iota
	// B is a coupled backward pass (B_input and B_weight fused), the
	// conventional execution the paper's Figure 3 uses.
	B
	// BInput is the decoupled gradient computation w.r.t. the stage input.
	BInput
	// BWeight is the decoupled, dependence-free gradient computation
	// w.r.t. the stage weights.
	BWeight
	// Optimizer is the gradient all-reduce + optimizer step for one stage.
	Optimizer
)

// String implements fmt.Stringer.
func (t OpType) String() string {
	switch t {
	case F:
		return "F"
	case B:
		return "B"
	case BInput:
		return "BI"
	case BWeight:
		return "BW"
	case Optimizer:
		return "OPT"
	default:
		return fmt.Sprintf("OpType(%d)", int8(t))
	}
}

// Op is the paper's 5-tuple (i, j, k, c, k_s) plus an iteration index used
// when schedules are unrolled across iterations for the Staggered Optimizer.
type Op struct {
	Stage int    // i: pipeline stage
	MB    int    // j: micro-batch id within the home pipeline, 0-based
	Home  int    // k: data-parallel pipeline the micro-batch belongs to
	Type  OpType // c
	Exec  int    // k_s: pipeline whose stage-i worker executes the op
	Iter  int    // training iteration, 0-based
}

// Rerouted reports whether the op runs on a data-parallel peer rather than
// its home pipeline's worker.
func (o Op) Rerouted() bool { return o.Exec != o.Home }

// Worker identifies the executor of the op as (stage, pipeline).
func (o Op) Worker() Worker { return Worker{Stage: o.Stage, Pipeline: o.Exec} }

// String renders the op in the paper's W{k}_{i} notation.
func (o Op) String() string {
	if o.Type == Optimizer {
		return fmt.Sprintf("it%d:OPT@W%d_%d", o.Iter, o.Exec, o.Stage)
	}
	s := fmt.Sprintf("it%d:%s(mb%d,p%d)@W%d_%d", o.Iter, o.Type, o.MB, o.Home, o.Exec, o.Stage)
	return s
}

// Worker is one failure unit: pipeline stage Stage of data-parallel
// pipeline Pipeline — the paper's W{Pipeline}_{Stage}.
type Worker struct {
	Stage    int
	Pipeline int
}

// String renders the worker in the paper's notation.
func (w Worker) String() string { return fmt.Sprintf("W%d_%d", w.Pipeline, w.Stage) }

// SortWorkers orders workers canonically by (stage, pipeline) — the one
// ordering used for concrete plans, plan-store keys, wire encoding and
// failed-set comparison. It lives next to the
// Worker type so every layer (core, profile, dtrain) shares one
// definition.
func SortWorkers(ws []Worker) {
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Stage != ws[j].Stage {
			return ws[i].Stage < ws[j].Stage
		}
		return ws[i].Pipeline < ws[j].Pipeline
	})
}

// Durations holds integer op durations in abstract time slots. The paper's
// figures use TF = 1, TB = 2 (split 1+1 when decoupled); the simulator maps
// profiled seconds onto these integers at microsecond resolution.
type Durations struct {
	F       int64
	BInput  int64
	BWeight int64
	Opt     int64
	Comm    int64
}

// UnitSlots is the slot model the paper's figures are drawn with.
var UnitSlots = Durations{F: 1, BInput: 1, BWeight: 1, Opt: 1, Comm: 0}

// Of returns the duration of an op of type t. A coupled B costs
// BInput+BWeight.
func (d Durations) Of(t OpType) int64 {
	switch t {
	case F:
		return d.F
	case B:
		return d.BInput + d.BWeight
	case BInput:
		return d.BInput
	case BWeight:
		return d.BWeight
	case Optimizer:
		return d.Opt
	default:
		return 0
	}
}

// Placement is one scheduled op: the op plus its start time; End is
// Start + duration.
type Placement struct {
	Op    Op
	Start int64
	End   int64
}
