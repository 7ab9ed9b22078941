package solver

import (
	"cmp"
	"slices"

	"recycle/internal/schedule"
)

// Hint carries one solved instance forward as a warm start for a
// neighboring solve: the schedule, the routing table it was solved under,
// and the toggles/caps that shaped its task graph. Solve emits a self-hint
// for every schedule it produces (SolveInfo.Hint); planners thread the
// previous plan's hint into the next solve of the same failure
// configuration — a cache invalidation, a cost-model recalibration. An
// identical instance re-solves as a validation pass. A uniformly rescaled
// one saves nothing: SolveInstrumented replays the hint's op order and
// runs the scratch dispatch too, keeping the shorter horizon, so the race
// costs one extra pass over the task graph. With comm latency rescaled
// along with the op costs the two produce the same placements; with it
// held fixed each wins about as often as it loses.
type Hint struct {
	// Schedule is the solved schedule of the hint's instance.
	Schedule *schedule.Schedule
	// Routes is the [stage][home][mb] exec-pipeline table the hint's solve
	// routed with. A warm start is only sound when the new input routes
	// identically — the routing determines the task graph's op set.
	Routes [][][]int
	// Solver toggles and memory caps of the hint's instance; any mismatch
	// with the new input voids the hint.
	Decoupled, Staggered, Naive bool
	MemCap                      int
	MemCapPerStage              []int
}

// SolveKind labels how a solve derived its schedule.
type SolveKind uint8

const (
	// KindScratch: full graph build and priority-driven dispatch (no
	// usable hint, or the hint's replay did not beat the scratch result).
	KindScratch SolveKind = iota
	// KindWarmIdentical: the hint solved the identical instance; its
	// schedule was validated against the new input (routes, flags, every
	// placement duration) and returned unchanged.
	KindWarmIdentical
	// KindWarmReplay: durations drifted by one uniform factor with the
	// routing held; replaying the hint's per-worker op order under the new
	// durations matched or beat the scratch dispatch's makespan.
	KindWarmReplay
)

func (k SolveKind) String() string {
	switch k {
	case KindWarmIdentical:
		return "warm-identical"
	case KindWarmReplay:
		return "warm-replay"
	default:
		return "scratch"
	}
}

// SolveInfo reports how a solve was derived. Hint is the self-hint
// describing the returned schedule's own instance, ready to warm-start the
// next neighboring solve.
type SolveInfo struct {
	Kind SolveKind
	Hint *Hint
}

// selfHint packages a finished solve as a warm-start hint.
func selfHint(in Input, routes [][][]int, s *schedule.Schedule) *Hint {
	return &Hint{
		Schedule:       s,
		Routes:         routes,
		Decoupled:      in.Decoupled,
		Staggered:      in.Staggered,
		Naive:          in.Naive,
		MemCap:         in.MemCap,
		MemCapPerStage: slices.Clone(in.MemCapPerStage),
	}
}

// compatible reports whether the hint describes an instance with the same
// task graph as the input: same shape, same failed set, same toggles and
// caps, and the same routing table. Durations may still differ — that is
// what separates the identical fast path from the replay path.
func (h *Hint) compatible(in Input, routes [][][]int) bool {
	if h == nil || h.Schedule == nil {
		return false
	}
	if h.Schedule.Shape != in.Shape ||
		h.Decoupled != in.Decoupled || h.Staggered != in.Staggered || h.Naive != in.Naive ||
		h.MemCap != in.MemCap || !slices.Equal(h.MemCapPerStage, in.MemCapPerStage) {
		return false
	}
	inFailed := 0
	for w, v := range in.Failed {
		if !v {
			continue
		}
		inFailed++
		if !h.Schedule.Failed[w] {
			return false
		}
	}
	hintFailed := 0
	for _, v := range h.Schedule.Failed {
		if v {
			hintFailed++
		}
	}
	if inFailed != hintFailed {
		return false
	}
	if len(h.Routes) != len(routes) {
		return false
	}
	for i := range routes {
		if len(h.Routes[i]) != len(routes[i]) {
			return false
		}
		for k := range routes[i] {
			if !slices.Equal(h.Routes[i][k], routes[i][k]) {
				return false
			}
		}
	}
	return true
}

// durationsMatch verifies that the hint schedule is timed exactly as the
// new input would time it: every placement spans precisely the duration
// the input's cost model assigns its executor. Together with compatible
// (and equal base Durations, which pin the comm latency and the skeleton
// priorities), this certifies the instance identical — and the solver is
// deterministic, so the hint schedule IS the scratch result.
func (h *Hint) durationsMatch(in Input) bool {
	for _, p := range h.Schedule.Placements {
		if p.End-p.Start != in.dur(p.Op.Worker(), p.Op.Type) {
			return false
		}
	}
	return true
}

// uniformRescale reports whether the input re-times every op of the
// hint's schedule by one global factor. Under a uniform rescale the hint's
// op order is provably still optimal-relative-to-scratch (every start time
// scales together), so a replay is worth racing; under any other drift the
// relative op costs changed, replay almost never wins, and attempting it
// only taxes the solve — the warm path abandons the hint immediately and
// falls through to scratch. The ratio test cross-multiplies, so
// fractional factors need no floating point.
func (h *Hint) uniformRescale(in Input) bool {
	var num, den int64
	for _, p := range h.Schedule.Placements {
		hd := p.End - p.Start
		nd := in.dur(p.Op.Worker(), p.Op.Type)
		if hd == 0 && nd == 0 {
			continue
		}
		if hd == 0 || nd == 0 {
			return false
		}
		if den == 0 {
			num, den = nd, hd
			continue
		}
		if nd*den != num*hd {
			return false
		}
	}
	return true
}

// replayOrder re-times the hint's per-worker op order under the state's
// own task durations: a list-scheduling pass with the dispatch order fixed
// by the hint instead of derived from priorities. Order preservation keeps
// every structural constraint intact — dependencies are re-derived from
// the state's graph, and per-worker memory/window feasibility follows from
// the hint's own feasibility since both depend only on the op order. The
// pass touches only the state's scratch, never its task graph or dispatch
// state; ok=false means the hint does not cover the task graph or its
// order is cyclic, and the caller falls back to the scratch dispatch
// untouched.
func (s *state) replayOrder(hs *schedule.Schedule) (out []schedule.Placement, ok bool) {
	sh, n, nw := s.in.Shape, len(s.tasks), len(s.workers)
	if len(hs.Placements) != n {
		return nil, false
	}
	// Match placements to tasks by op slot; a match consumes its slot, so a
	// duplicate misses.
	s.slot = filled(s.slot, sh.Slots(), -1)
	for id := range s.tasks {
		s.slot[sh.OpSlot(s.tasks[id].op)] = int32(id)
	}
	s.hstart = filled(s.hstart, n, 0)
	for _, p := range hs.Placements {
		sl := sh.OpSlot(p.Op)
		if sl < 0 || s.slot[sl] < 0 || s.tasks[s.slot[sl]].op != p.Op {
			return nil, false
		}
		s.hstart[s.slot[sl]], s.slot[sl] = p.Start, -1
	}

	// Per-worker op order: hint start time, with (iteration, skeleton
	// priority) breaking zero-duration ties deterministically. Worker wi's
	// ops are seq[seqOff[wi]:seqOff[wi+1]] (count, prefix sum, fill), and
	// chain[wi] is the position of its next one.
	s.seqOff = filled(s.seqOff, nw+1, 0)
	for id := range s.tasks {
		s.seqOff[s.tasks[id].wi+1]++
	}
	for wi := 0; wi < nw; wi++ {
		s.seqOff[wi+1] += s.seqOff[wi]
	}
	s.chain = append(s.chain[:0], s.seqOff[:nw]...)
	s.order = filled(s.order, n, 0) // applyALAP is done with it
	seq, chain := s.order, s.chain
	for id := range s.tasks {
		wi := s.tasks[id].wi
		seq[chain[wi]] = taskID(id)
		chain[wi]++
	}
	byHint := func(x, y taskID) int {
		if s.hstart[x] != s.hstart[y] {
			return cmp.Compare(s.hstart[x], s.hstart[y])
		}
		tx, ty := &s.tasks[x], &s.tasks[y]
		if tx.op.Iter != ty.op.Iter {
			return cmp.Compare(tx.op.Iter, ty.op.Iter)
		}
		return cmp.Compare(tx.pos, ty.pos)
	}
	for wi := 0; wi < nw; wi++ {
		slices.SortFunc(seq[s.seqOff[wi]:s.seqOff[wi+1]], byHint)
	}
	copy(chain, s.seqOff[:nw])

	// Kahn over the dependency graph joined with the per-worker chains;
	// gradient counters release the optimizers and barrier groups step
	// together at their members' latest arrival, exactly like the live
	// dispatch.
	s.indeg = filled(s.indeg, n, 0) // applyALAP is done with it
	depLeft := s.indeg
	for id := range s.tasks {
		depLeft[id] = s.tasks[id].predsN
	}
	s.readyAt, s.wfree, s.processed = filled(s.readyAt, n, 0), filled(s.wfree, nw, 0), filled(s.processed, n, false)
	s.rgrads = filled(s.rgrads, sh.Iter*sh.PP, gradCount{left: int32(sh.DP * sh.MB)})
	s.rgroups = filled(s.rgroups, sh.Iter*sh.PP, optGroup{})
	readyAt, wfree, processed := s.readyAt, s.wfree, s.processed
	out = make([]schedule.Placement, 0, n)
	queue := s.queue[:0]
	push := func(wi int32) {
		if c := chain[wi]; c < s.seqOff[wi+1] {
			if id := seq[c]; depLeft[id] == 0 && !processed[id] {
				queue = append(queue, id)
			}
		}
	}
	finish := func(id taskID, start int64) {
		t := &s.tasks[id]
		end := start + t.dur
		out = append(out, schedule.Placement{Op: t.op, Start: start, End: end})
		wfree[t.wi] = max(wfree[t.wi], end)
		chain[t.wi]++
		for _, sc := range t.next() {
			readyAt[sc.id] = max(readyAt[sc.id], end+sc.comm)
			if depLeft[sc.id]--; depLeft[sc.id] == 0 {
				push(s.tasks[sc.id].wi)
			}
		}
		if g := &s.rgrads[sh.StageIndex(t.op.Iter, t.op.Stage)]; contributes(t.op.Type) && g.land(end) {
			for _, m := range s.stageWorkers(t.op.Stage) {
				o := s.optBase[t.op.Iter] + taskID(m)
				readyAt[o], depLeft[o] = max(readyAt[o], g.end), 0
				push(m)
			}
		}
		push(t.wi)
	}
	for wi := 0; wi < nw; wi++ {
		push(int32(wi))
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if processed[id] {
			continue
		}
		t := &s.tasks[id]
		wi := t.wi
		if chain[wi] >= s.seqOff[wi+1] || seq[chain[wi]] != id || depLeft[id] != 0 {
			continue // stale queue entry
		}
		processed[id] = true
		if t.op.Type == schedule.Optimizer {
			g := &s.rgroups[s.group(t.op.Iter, t.op.Stage)]
			g.arriveAt = max(g.arriveAt, readyAt[id], wfree[wi])
			members := s.members(t.op.Stage)
			if g.arrived++; g.arrived == len(members) {
				for _, m := range members {
					finish(s.optBase[t.op.Iter]+taskID(m), g.arriveAt)
				}
			}
			continue
		}
		finish(id, max(readyAt[id], t.release, wfree[wi]))
	}
	s.queue = queue
	if len(out) != n {
		return nil, false // cyclic order or barrier deadlock — fall back
	}
	return out, true
}

// horizon is the total span of a placement list (optimizer included) — the
// metric warm replay must beat for its candidate to replace scratch.
func horizon(ps []schedule.Placement) int64 {
	var h int64
	for _, p := range ps {
		if p.End > h {
			h = p.End
		}
	}
	return h
}
