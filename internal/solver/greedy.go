package solver

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"recycle/internal/schedule"
)

var statePool = sync.Pool{New: func() any { return new(state) }}

// filled returns s resized to n elements, every one set to v, reallocating
// only when its capacity is too small.
func filled[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// reference fills the fault-free skeleton tables — the merge priority for
// rerouted work, identical across pipelines, so timed once with DP=1 —
// unless the pooled state already holds them for (pp, mb, d).
func (s *state) reference(pp, mb int, d schedule.Durations) {
	key := refKey{pp, mb, d}
	if s.ref == key {
		return
	}
	ref := schedule.FaultFree1F1B(schedule.Shape{DP: 1, PP: pp, MB: mb, Iter: 1}, d)
	s.ffMakespan = ref.ComputeMakespan(0)
	s.refF = filled(s.refF, pp*mb, 0)
	s.refB = filled(s.refB, pp*mb, 0)
	s.refBEnd = filled(s.refBEnd, pp*mb, s.ffMakespan)
	for _, p := range ref.Placements {
		switch slot := p.Op.Stage*mb + p.Op.MB; p.Op.Type {
		case schedule.F:
			s.refF[slot] = p.Start
		case schedule.B:
			s.refB[slot], s.refBEnd[slot] = p.Start, p.End
		}
	}
	s.ref = key
}

// newState builds the task graph for the input: one F and one backward
// chain per (iteration, pipeline, micro-batch, stage) with the MILP's
// dependency structure (Eq. 2–4), per-worker priority streams ordered by
// the fault-free 1F1B skeleton, and optimizer barrier groups. The state
// comes from a pool; release returns it.
func newState(in Input, routes [][][]int) *state {
	sh := in.Shape
	d := in.Durations
	s := statePool.Get().(*state)
	s.in = in

	s.reference(sh.PP, sh.MB, d)
	iterSpan := s.ffMakespan + d.Opt + 1
	tie := int64(2*sh.DP + 2)
	pos := func(iter int, slot int64, home, exec int) int64 {
		t := int64(0)
		if home != exec {
			// Rerouted ops sort after own ops at the same skeleton slot.
			t = int64(home) + 2
		}
		return (int64(iter)*iterSpan+slot)*tie + t
	}

	s.widx = filled(s.widx, sh.DP*sh.PP, -1)
	s.workers = s.workers[:0]
	for x := range s.widx {
		w := sh.WorkerAt(x)
		if in.Failed[w] {
			continue
		}
		s.widx[x] = int32(len(s.workers))
		if len(s.workers) < cap(s.workers) {
			s.workers = s.workers[:len(s.workers)+1] // keeps an earlier solve's buffers
		} else {
			s.workers = append(s.workers, workerState{})
		}
		ws := &s.workers[len(s.workers)-1]
		*ws = workerState{w: w, crit: ws.crit[:0], ready: ws.ready, bwPool: ws.bwPool[:0],
			critLeft: filled(ws.critLeft, sh.Iter, 0), bwLeft: filled(ws.bwLeft, sh.Iter, 0)}
		if in.MemCapPerStage != nil {
			ws.memCap = in.MemCapPerStage[w.Stage]
		}
		for t := range ws.durs {
			ws.durs[t] = sh.CostOf(in.Costs, in.Durations, w, schedule.OpType(t))
		}
	}

	// Selective Decoupled BackProp (§3.2): splitting every backward pass
	// would speed up even the fault-free schedule (the "zero-bubble"
	// effect), changing the baseline. The paper instead decouples only
	// where it mitigates rerouting: pipelines that lost a worker (their
	// backward chains must not stall behind coupled BWeight work) and
	// workers that absorb rerouted micro-batches (they defer BWeight into
	// bubbles).
	s.pipeFailed = filled(s.pipeFailed, sh.DP, false)
	s.rerouted = filled(s.rerouted, sh.DP*sh.PP, 0)
	for w := range in.Failed {
		s.pipeFailed[w.Pipeline] = true
	}
	for i := 0; i < sh.PP; i++ {
		for k := 0; k < sh.DP; k++ {
			for j := 0; j < sh.MB; j++ {
				if exec := routes[i][k][j]; exec != k {
					s.rerouted[exec*sh.PP+i]++
				}
			}
		}
	}
	periodRef := s.ffMakespan + d.Opt

	s.tasks = slices.Grow(s.tasks[:0], sh.Iter*(3*sh.DP*sh.PP*sh.MB+len(s.workers)))
	s.col = filled(s.col, sh.PP, 0)
	s.optBase = filled(s.optBase, sh.Iter, 0)
	for it := 0; it < sh.Iter; it++ {
		for k := 0; k < sh.DP; k++ {
			for j := 0; j < sh.MB; j++ {
				var prevF taskID
				for i := 0; i < sh.PP; i++ {
					exec := routes[i][k][j]
					wi := s.widx[exec*sh.PP+i]
					loaded := s.rerouted[exec*sh.PP+i] > 0
					slot := i*sh.MB + j
					// Unaffected work keeps the fault-free 1F1B pacing: it may
					// not start earlier than its fault-free slot. This pins the
					// baseline — adaptive schedules repair failures rather than
					// re-optimize healthy pipelines, so fault-free throughput is
					// never exceeded (§3.1: "all other workers operate as in the
					// fault-free schedule").
					var relF, relB int64
					if !s.pipeFailed[k] && !loaded {
						relF = int64(it)*periodRef + s.refF[slot]
						relB = int64(it)*periodRef + s.refB[slot]
					}
					op := schedule.Op{Stage: i, MB: j, Home: k, Exec: exec, Type: schedule.F, Iter: it}
					f := s.add(task{op: op, wi: wi, pos: pos(it, s.refF[slot], k, exec), release: relF, critical: true})
					bpos := pos(it, s.refB[slot], k, exec)
					if in.Decoupled && (s.pipeFailed[k] || loaded) {
						op.Type = schedule.BInput
						s.col[i] = s.add(task{op: op, wi: wi, pos: bpos, critical: true})
						op.Type = schedule.BWeight
						s.edge(s.col[i], s.add(task{op: op, wi: wi, pos: bpos + 1}), 0)
					} else {
						op.Type = schedule.B
						s.col[i] = s.add(task{op: op, wi: wi, pos: bpos, release: relB, critical: true})
					}
					// Local data dependency: backward needs the stage stash.
					s.edge(f, s.col[i], 0)
					// Eq. 2: forward cross-stage chain.
					if i > 0 {
						s.edge(prevF, f, d.Comm)
					}
					prevF = f
				}
				// Eq. 3: backward cross-stage chain (built after the column
				// exists, downstream to upstream).
				for i := 0; i < sh.PP-1; i++ {
					s.edge(s.col[i+1], s.col[i], d.Comm)
				}
			}
		}
		// Optimizer tasks, one per live worker in worker order. They carry
		// no edges: the stage's gradCount releases them (placeAt).
		s.optBase[it] = taskID(len(s.tasks))
		for wi := range s.workers {
			w := s.workers[wi].w
			s.add(task{
				op:     schedule.Op{Stage: w.Stage, MB: -1, Home: w.Pipeline, Exec: w.Pipeline, Type: schedule.Optimizer, Iter: it},
				wi:     int32(wi),
				pos:    pos(it, iterSpan-1, w.Pipeline, w.Pipeline),
				predsN: 1,
			})
		}
	}
	s.byStage, s.stageOff, s.everyone = s.byStage[:0], s.stageOff[:0], s.everyone[:0]
	for i := 0; i <= sh.PP; i++ {
		s.stageOff = append(s.stageOff, int32(len(s.byStage)))
		for wi := range s.workers {
			if s.workers[wi].w.Stage == i {
				s.byStage = append(s.byStage, int32(wi))
			}
		}
	}
	for wi := range s.workers {
		s.everyone = append(s.everyone, int32(wi))
	}
	s.grads = filled(s.grads, sh.Iter*sh.PP, gradCount{left: int32(sh.DP * sh.MB)})
	s.groups = filled(s.groups, sh.Iter*sh.PP, optGroup{})

	// Refine priorities with ALAP (as-late-as-possible) start times derived
	// from the staggered per-stage deadlines: stage i's optimizer must end
	// by (fault-free makespan + optimizer) + i*(F+comm) for the next
	// iteration's warm-up to start on time. Least-laxity-first ordering is
	// what lets a loaded peer run the *last* rerouted forward early enough
	// for its backward chain to clear upstream stages before their
	// all-reduce deadlines (the zero-overhead packing of Fig 6c).
	if in.Decoupled {
		s.applyALAP()
	}

	// Per-worker critical streams sorted by priority, with the ready set of
	// their predecessor-free tasks; per-iteration work counters for
	// optimizer gating.
	for id := range s.tasks {
		t := &s.tasks[id]
		w := &s.workers[t.wi]
		switch {
		case t.critical:
			w.crit = append(w.crit, taskID(id))
			w.critLeft[t.op.Iter]++
		case t.op.Type == schedule.BWeight:
			w.bwLeft[t.op.Iter]++
		}
	}
	for wi := range s.workers {
		w := &s.workers[wi]
		slices.SortFunc(w.crit, s.before)
		w.ready = filled(w.ready, (len(w.crit)+63)/64, 0)
		for i, id := range w.crit {
			t := &s.tasks[id]
			t.cpos = int32(i)
			if t.predsN == 0 {
				w.ready[i>>6] |= 1 << (i & 63)
			}
		}
		// 1F1B forward-ahead window: the fault-free warm-up depth plus one
		// per rerouted micro-batch this worker absorbs.
		w.window = sh.PP - w.w.Stage
		if in.Decoupled {
			w.window += int(s.rerouted[sh.WorkerIndex(w.w)])
		}
	}
	s.placements = make([]schedule.Placement, 0, len(s.tasks))
	s.unplaced = len(s.tasks)
	return s
}

// release returns the state to the pool. The placements belong to the
// schedule built from them and are not kept.
func (s *state) release() {
	s.in, s.placements = Input{}, nil
	statePool.Put(s)
}

// add appends a task timed by its executor's cost model.
func (s *state) add(t task) taskID {
	t.dur = s.workers[t.wi].durs[t.op.Type]
	s.tasks = append(s.tasks, t)
	return taskID(len(s.tasks) - 1)
}

// edge adds a dependency.
func (s *state) edge(from, to taskID, comm int64) {
	t := &s.tasks[from]
	t.succ[t.nsucc] = succ{id: to, comm: comm}
	t.nsucc++
	s.tasks[to].predsN++
}

// run executes the event loop to completion.
func (s *state) run() error {
	// Seed future-start hints for tasks that are ready from the start
	// (their earliest start is their release time).
	s.wake = filled(s.wake, len(s.workers), math.MaxInt64)
	s.events = s.events[:0]
	for wi := range s.workers {
		s.wakeAt(wi, 0)
	}
	for s.events.Len() > 0 {
		e := s.events.popEvent()
		if s.wake[e.w] == e.t {
			s.wake[e.w] = math.MaxInt64
		}
		for s.dispatch(e.w, e.t) {
		}
	}
	if s.unplaced != 0 {
		return fmt.Errorf("solver: deadlock with %d unplaced tasks", s.unplaced)
	}
	return nil
}

// dispatch attempts one scheduling action for worker wi at time t and
// reports whether it acted.
func (s *state) dispatch(wi int, t int64) bool {
	w := &s.workers[wi]
	if w.free > t {
		s.wakeAt(wi, w.free)
		return false
	}
	// The worker may execute the iteration of its first unplaced optimizer.
	gate := w.optNext

	// 1. Ready critical op in priority order (skipping memory-blocked Fs):
	// the ready set holds exactly the unplaced, predecessor-free entries.
	for idx := w.firstReady(); idx >= 0; idx = w.nextReady(idx + 1) {
		c := &s.tasks[w.crit[idx]]
		if c.op.Iter > gate {
			break
		}
		if max(c.readyAt, c.release) > t {
			continue
		}
		if c.op.Type == schedule.F {
			if w.memCap > 0 && w.held+1 > w.memCap {
				continue // memory-blocked; a BWeight must free a slot first
			}
			if w.ahead+1 > w.window {
				continue // 1F1B window full; a backward-input must run first
			}
		}
		s.place(wi, w.crit[idx], t)
		return true
	}

	// 2. Fill the bubble with a deferred backward-weight op if it cannot
	// delay the next known critical op (Decoupled BackProp bubble filling).
	// minFuture is the earliest known start of a pending critical op on
	// this worker (from the future-heap; entries may be stale, which only
	// makes bubble filling more conservative).
	minFuture := int64(math.MaxInt64)
	for idx := w.firstReady(); idx >= 0; idx = w.nextReady(idx + 1) {
		c := &s.tasks[w.crit[idx]]
		if c.op.Iter > gate {
			break
		}
		if est := max(c.readyAt, c.release); est > t && est < minFuture {
			minFuture = est
		}
	}
	if w.bwHead < len(w.bwPool) {
		id := w.bwPool[w.bwHead]
		if minFuture == math.MaxInt64 || minFuture-t >= s.tasks[id].dur || s.memPressure(w) {
			w.bwHead++
			s.place(wi, id, t)
			return true
		}
		s.wakeAt(wi, minFuture)
		return false
	}

	// 3. Arrive at the optimizer barrier once this iteration is drained.
	if gate < s.in.Shape.Iter && w.critLeft[gate] == 0 && w.bwLeft[gate] == 0 && !w.arrived {
		if o := &s.tasks[s.optBase[gate]+taskID(wi)]; o.predsN == 0 {
			s.arrive(wi, gate, max(t, o.readyAt))
			return false
		}
	}
	if minFuture < math.MaxInt64 {
		s.wakeAt(wi, minFuture)
	}
	return false
}

// memPressure reports whether the worker is at (or beyond) its activation
// cap, in which case deferred BWeights must run to free stash space.
func (s *state) memPressure(w *workerState) bool {
	return w.memCap > 0 && w.held >= w.memCap
}

// group returns the barrier index of stage's optimizer in iteration iter:
// one barrier per (iteration, stage) under the Staggered Optimizer, one per
// iteration otherwise.
func (s *state) group(iter, stage int) int {
	if s.in.Staggered {
		return iter*s.in.Shape.PP + stage
	}
	return iter
}

// members returns the live workers that step stage's optimizer barrier
// together, in worker order.
func (s *state) members(stage int) []int32 {
	if s.in.Staggered {
		return s.stageWorkers(stage)
	}
	return s.everyone
}

// stageWorkers returns the live workers of stage, in worker order.
func (s *state) stageWorkers(stage int) []int32 {
	return s.byStage[s.stageOff[stage]:s.stageOff[stage+1]]
}

// arrive registers the worker at its optimizer barrier; when the last
// member arrives the whole group steps together (the all-reduce +
// optimizer collective).
func (s *state) arrive(wi, iter int, at int64) {
	w := &s.workers[wi]
	w.arrived = true
	g := &s.groups[s.group(iter, w.w.Stage)]
	g.arrived++
	g.arriveAt = max(g.arriveAt, at)
	members := s.members(w.w.Stage)
	if g.arrived < len(members) {
		return
	}
	for _, m := range members {
		s.placeAt(s.optBase[iter]+taskID(m), g.arriveAt)
	}
	for _, m := range members {
		mw := &s.workers[m]
		mw.arrived = false
		mw.optNext++
		s.wakeAt(int(m), mw.free)
	}
}

// place schedules task id on worker wi starting at t.
func (s *state) place(wi int, id taskID, t int64) {
	s.placeAt(id, t)
	s.wakeAt(wi, s.workers[wi].free)
}

// placeAt commits a task at the given start time, updates worker state and
// propagates readiness to successors.
func (s *state) placeAt(id taskID, start int64) {
	c := &s.tasks[id]
	if c.placed {
		panic("solver: task placed twice")
	}
	end := start + c.dur
	c.placed = true
	s.unplaced--
	s.placements = append(s.placements, schedule.Placement{Op: c.op, Start: start, End: end})

	w := &s.workers[c.wi]
	w.free = max(w.free, end)
	switch c.op.Type {
	case schedule.F:
		w.held++
		w.ahead++
	case schedule.B:
		w.held--
		w.ahead--
	case schedule.BInput:
		w.ahead--
	case schedule.BWeight:
		w.held--
	}
	switch {
	case c.critical:
		w.ready[c.cpos>>6] &^= 1 << (c.cpos & 63)
		w.critLeft[c.op.Iter]--
	case c.op.Type == schedule.BWeight:
		w.bwLeft[c.op.Iter]--
	}

	for _, sc := range c.next() {
		n := &s.tasks[sc.id]
		n.readyAt = max(n.readyAt, end+sc.comm)
		if n.predsN--; n.predsN == 0 {
			s.ready(sc.id)
		}
	}
	// Gradient readiness: the stage's all-reduce needs every backward-weight
	// of the stage, wherever it executed. The last one to land releases the
	// stage's optimizers, in worker order.
	if g := &s.grads[s.in.Shape.StageIndex(c.op.Iter, c.op.Stage)]; contributes(c.op.Type) && g.land(end) {
		base := s.optBase[c.op.Iter]
		for _, m := range s.stageWorkers(c.op.Stage) {
			o := &s.tasks[base+taskID(m)]
			o.readyAt, o.predsN = max(o.readyAt, g.end), 0
			s.ready(base + taskID(m))
		}
	}
}

// ready queues a task whose last predecessor was just placed: a critical
// task joins its worker's ready set, a backward weight its bubble-filling
// pool, and the worker wakes at the task's earliest start.
func (s *state) ready(id taskID) {
	n := &s.tasks[id]
	w := &s.workers[n.wi]
	switch {
	case n.critical:
		w.ready[n.cpos>>6] |= 1 << (n.cpos & 63)
		w.readyLo = min(w.readyLo, int(n.cpos>>6))
	case n.op.Type == schedule.BWeight:
		w.bwPool = append(w.bwPool, id)
	}
	s.wakeAt(int(n.wi), max(n.readyAt, n.release, w.free))
}
