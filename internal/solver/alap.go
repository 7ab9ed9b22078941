package solver

import (
	"cmp"
	"math"

	"recycle/internal/schedule"
)

// applyALAP recomputes task priorities as (iteration, ALAP start, skeleton
// position): a least-laxity-first order. ALAP finish times are propagated
// backwards from per-stage optimizer deadlines:
//
//	deadline(stage i, iter t) = (t+1)*period + i*(TF+TComm) - TOpt
//
// i.e. each stage's gradients must be ready in time for its (staggered)
// optimizer step to finish before the next iteration's warm-up reaches the
// stage. When the Staggered Optimizer is disabled every stage shares the
// iteration-end deadline.
func (s *state) applyALAP() {
	d := s.in.Durations
	mb := s.in.Shape.MB
	period := s.ffMakespan + d.Opt
	// Per-(stage, micro-batch) deadline stagger from the fault-free
	// skeleton: the dependency DAG has no inter-micro-batch edges, so a
	// raw longest-path ALAP would give every micro-batch of a stage the
	// same deadline and least-laxity ordering could not tell the first
	// micro-batch from the last. Anchor each micro-batch's backward
	// deadline to its fault-free completion, shifted so the last one meets
	// the stage deadline. Until the last loop, alap holds the latest
	// allowed finish.
	for id := range s.tasks {
		t := &s.tasks[id]
		t.alap = math.MaxInt64 / 4
		if t.op.Type == schedule.BWeight || t.op.Type == schedule.B {
			stageSlack := int64(t.op.Stage) * (d.F + d.Comm)
			if !s.in.Staggered {
				stageSlack = 0
			}
			mbStagger := s.refBEnd[t.op.Stage*mb+mb-1] - s.refBEnd[t.op.Stage*mb+t.op.MB]
			t.alap = int64(t.op.Iter+1)*period + stageSlack - d.Opt - mbStagger
		}
	}
	// Relax in reverse topological order. Creation order is not
	// topological for backward chains, so Kahn's algorithm over the
	// successors orders the graph first; walked backwards, every task's
	// successors are final before it pulls from them.
	s.indeg = filled(s.indeg, len(s.tasks), 0)
	for id := range s.tasks {
		for _, sc := range s.tasks[id].next() {
			s.indeg[sc.id]++
		}
	}
	s.order = s.order[:0]
	for id := range s.tasks {
		if s.indeg[id] == 0 {
			s.order = append(s.order, taskID(id))
		}
	}
	for i := 0; i < len(s.order); i++ {
		for _, sc := range s.tasks[s.order[i]].next() {
			if s.indeg[sc.id]--; s.indeg[sc.id] == 0 {
				s.order = append(s.order, sc.id)
			}
		}
	}
	for i := len(s.order) - 1; i >= 0; i-- {
		t := &s.tasks[s.order[i]]
		for _, sc := range t.next() {
			n := &s.tasks[sc.id]
			t.alap = min(t.alap, n.alap-n.dur-sc.comm)
		}
	}
	// Record ALAP start times; tasks are compared by
	// (iteration, ALAP start, skeleton position).
	for id := range s.tasks {
		s.tasks[id].alap -= s.tasks[id].dur
	}
}

// before orders tasks by (iteration, ALAP start, skeleton position) — the
// dispatch priority.
func (s *state) before(a, b taskID) int {
	ta, tb := &s.tasks[a], &s.tasks[b]
	if ta.op.Iter != tb.op.Iter {
		return cmp.Compare(ta.op.Iter, tb.op.Iter)
	}
	if ta.alap != tb.alap {
		return cmp.Compare(ta.alap, tb.alap)
	}
	return cmp.Compare(ta.pos, tb.pos)
}
