package profile

import (
	"fmt"
	"math"
	"strings"

	"recycle/internal/schedule"
)

// CostModel carries per-(stage, op, worker) integer durations — the
// heterogeneity layer on top of Stats' fleet-wide op latencies. The paper's
// gray-failure discussion (and DAPPLE's uneven-stage planning) treat two
// kinds of imbalance as first class:
//
//   - per-stage imbalance: uneven layer splits make some stages intrinsically
//     slower (StageScale);
//   - per-worker imbalance: slow-but-alive workers — stragglers — run every
//     op at a multiple of their peers' speed (WorkerScale).
//
// A CostModel is immutable once shared: updates go through the
// copy-on-write With* methods, so a Planner snapshot and an engine cache
// key can hold a *CostModel without synchronization.
type CostModel struct {
	// Base is the fleet-wide op duration set (Stats.Durations()). Comm is
	// read from here; scaling applies to compute ops only.
	Base schedule.Durations
	// StageScale multiplies every compute op of stage i by StageScale[i].
	// Nil or a missing entry means 1.0.
	StageScale []float64
	// WorkerScale multiplies every compute op of a worker — stragglers are
	// >1, fast spares <1. Workers absent from the map run at 1.0.
	WorkerScale map[schedule.Worker]float64
}

// UniformCost wraps profiled stats into a homogeneous cost model: every
// worker of every stage runs at the fleet-wide op durations.
func UniformCost(s Stats) *CostModel {
	return &CostModel{Base: s.Durations()}
}

// scaleOf returns the combined multiplier for a worker.
func (m *CostModel) scaleOf(w schedule.Worker) float64 {
	s := 1.0
	if w.Stage >= 0 && w.Stage < len(m.StageScale) && m.StageScale[w.Stage] > 0 {
		s *= m.StageScale[w.Stage]
	}
	if f, ok := m.WorkerScale[w]; ok && f > 0 {
		s *= f
	}
	return s
}

// Of returns the modeled duration of one op type on one worker. A scale of
// exactly 1 reproduces the base duration bit-for-bit (no float round
// trip), which is what lets a uniform CostModel regenerate the unit-slot
// schedules unchanged. Scaled durations round to nearest and never drop
// below 1 when the base duration is positive. Only compute ops (F, B,
// BInput, BWeight) scale: the Optimizer span is dominated by the
// all-reduce collective, not local compute.
func (m *CostModel) Of(w schedule.Worker, t schedule.OpType) int64 {
	base := m.Base.Of(t)
	if t == schedule.Optimizer {
		return base
	}
	s := m.scaleOf(w)
	if s == 1 || base == 0 {
		return base
	}
	d := int64(math.Round(float64(base) * s))
	if d < 1 {
		d = 1
	}
	return d
}

// Fn adapts the model to the solver's cost-function input.
func (m *CostModel) Fn() schedule.CostFunc {
	return func(w schedule.Worker, t schedule.OpType) int64 { return m.Of(w, t) }
}

// WithWorkerScale returns a copy of the model with the worker's multiplier
// set (copy-on-write; the receiver is never mutated). A factor of 1
// removes the entry.
func (m *CostModel) WithWorkerScale(w schedule.Worker, factor float64) *CostModel {
	out := m.clone()
	if factor == 1 {
		delete(out.WorkerScale, w)
		return out
	}
	if out.WorkerScale == nil {
		out.WorkerScale = make(map[schedule.Worker]float64, 1)
	}
	out.WorkerScale[w] = factor
	return out
}

// WithStageScale returns a copy of the model with the per-stage multipliers
// replaced (uneven stage splits).
func (m *CostModel) WithStageScale(scale []float64) *CostModel {
	out := m.clone()
	out.StageScale = append([]float64(nil), scale...)
	return out
}

// clone deep-copies the model.
func (m *CostModel) clone() *CostModel {
	out := &CostModel{Base: m.Base, StageScale: append([]float64(nil), m.StageScale...)}
	if len(m.WorkerScale) > 0 {
		out.WorkerScale = make(map[schedule.Worker]float64, len(m.WorkerScale))
		for w, f := range m.WorkerScale {
			out.WorkerScale[w] = f
		}
	}
	return out
}

// Signature renders the model as a canonical deterministic string — the
// piece of a plan-cache fingerprint that distinguishes two cost models.
// JSON cannot serialize the worker map (struct keys), so the signature is
// built by hand with sorted keys.
func (m *CostModel) Signature() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "base:%d,%d,%d,%d,%d", m.Base.F, m.Base.BInput, m.Base.BWeight, m.Base.Opt, m.Base.Comm)
	if len(m.StageScale) > 0 {
		b.WriteString(";stages:")
		for i, s := range m.StageScale {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", s)
		}
	}
	if len(m.WorkerScale) > 0 {
		ws := make([]schedule.Worker, 0, len(m.WorkerScale))
		for w := range m.WorkerScale {
			ws = append(ws, w)
		}
		schedule.SortWorkers(ws)
		b.WriteString(";workers:")
		for i, w := range ws {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s=%g", w, m.WorkerScale[w])
		}
	}
	return b.String()
}
