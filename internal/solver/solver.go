// Package solver generates adaptive pipeline schedules: given the job
// shape, op durations, a set of failed workers and the ReCycle technique
// toggles, it produces a fully timed schedule that minimizes iteration
// makespan, standing in for the paper's MILP (§4.2.2).
//
// The solver is a deterministic event-driven list scheduler built around
// the structure the paper identifies:
//
//   - the fault-free 1F1B skeleton is preserved: forward and
//     backward-input ops run in their canonical order, with rerouted
//     micro-batches merged in by their fault-free timing (Adaptive
//     Pipelining, §3.1);
//   - backward-weight ops are dependence-free and are lazily deferred into
//     idle slots under the per-worker memory cap (Decoupled BackProp,
//     §3.2);
//   - optimizer steps synchronize either globally (conventional) or per
//     pipeline stage (Staggered Optimizer, §3.3).
//
// The task graph keys nothing by map: workers sit at Shape.WorkerIndex,
// the skeleton at stage·MB + mb, each iteration's optimizers at a fixed
// base plus the live-worker index, and one gradient counter per
// (iteration, stage) stands in for DP·MB edges into every optimizer.
// Per-solve scratch is pooled.
//
// exact.go provides a branch-and-bound makespan solver for small
// instances, used in tests to certify the heuristic's schedules.
package solver

import (
	"fmt"
	"math/bits"

	"recycle/internal/schedule"
)

// Input configures one solve.
type Input struct {
	Shape     schedule.Shape
	Durations schedule.Durations
	// Costs, when non-nil, gives per-(stage, op, worker) durations from the
	// cost model (internal/profile): stragglers, uneven stage splits. The
	// solver then both times every task with its executor's real duration
	// and routes micro-batches away from slow workers (gray-failure
	// handling). Durations remains the homogeneous base — it still supplies
	// Comm and the fault-free reference skeleton used for priorities. A nil
	// Costs (or one that equals Durations everywhere) reproduces the
	// homogeneous schedules bit-for-bit.
	Costs schedule.CostFunc
	// Failed is the set of failed workers to route around.
	Failed map[schedule.Worker]bool
	// MemCap is the per-worker in-flight activation cap in units (the
	// MILP's M_Limit, Eq. 6). Zero means unlimited; the Planner derives
	// real per-stage caps from the memory model. MemCapPerStage, when
	// non-nil, overrides MemCap with a per-stage value (later 1F1B stages
	// have more headroom — the imbalance §3.2 exploits).
	MemCap         int
	MemCapPerStage []int
	// Decoupled enables Decoupled BackProp (split BInput/BWeight).
	Decoupled bool
	// Staggered enables the Staggered Optimizer (per-stage barriers).
	Staggered bool
	// Naive disables the deadline-driven (ALAP) priorities and the
	// extended 1F1B window, reproducing the plain round-robin insertion of
	// Figure 3b — the behavior of a pipeline engine without the decoupled
	// backward instructions. The Planner uses it for the Fig 11 ablation's
	// "Adaptive Pipelining only" configuration.
	Naive bool
}

// ErrStageDead is returned when some pipeline stage has no live worker in
// any data-parallel pipeline: adaptive pipelining cannot repair the job and
// the caller must fall back to checkpoint restoration (§3.4, Fig 7a).
var ErrStageDead = fmt.Errorf("solver: a pipeline stage has no live data-parallel peer")

// dur resolves the duration of one op on one worker: the cost model when
// present, the homogeneous Durations otherwise.
func (in Input) dur(w schedule.Worker, t schedule.OpType) int64 {
	if in.Costs != nil {
		return in.Costs(w, t)
	}
	return in.Durations.Of(t)
}

// Solve produces an adaptive schedule for the input.
func Solve(in Input) (*schedule.Schedule, error) {
	if err := in.Shape.Validate(); err != nil {
		return nil, err
	}
	routes, err := RouteMicroBatchesCost(in.Shape, in.Failed, in.Costs)
	if err != nil {
		return nil, err
	}
	st := newState(in, routes)
	defer st.release()
	if err := st.run(); err != nil {
		return nil, err
	}
	return schedule.New(in.Shape, in.Durations, in.Failed, st.placements), nil
}

// RouteMicroBatchesCost computes the exec pipeline for every (stage, home
// pipeline, micro-batch), indexed [stage][home][mb]: the home worker when
// alive, otherwise a live data-parallel peer. With no cost model (nil
// costs) the peers take a failed home's micro-batches round-robin (the
// paper's even distribution, §3.1 and the ReRouteAct operator, §5). Under
// a heterogeneous cost model — the gray-failure generalization —
// slow-but-alive workers are demoted too: their micro-batches (and those
// of failed homes) are placed by a greedy least-finish-time rule over
// per-worker compute costs, so a 2× straggler keeps only the share of work
// it can finish in step with its peers instead of dragging the whole
// pipeline. Stages whose live workers all run at the same cost — every
// stage, when costs is nil — keep the round-robin routing, so a uniform
// cost model changes nothing.
func RouteMicroBatchesCost(shape schedule.Shape, failed map[schedule.Worker]bool, costs schedule.CostFunc) ([][][]int, error) {
	routes := make([][][]int, shape.PP)
	for i := 0; i < shape.PP; i++ {
		var alive []int
		for k := 0; k < shape.DP; k++ {
			if !failed[schedule.Worker{Stage: i, Pipeline: k}] {
				alive = append(alive, k)
			}
		}
		if len(alive) == 0 {
			return nil, fmt.Errorf("%w: stage %d", ErrStageDead, i)
		}
		// Per-micro-batch compute cost on each live worker of the stage.
		var cost []int64
		minCost := int64(1) << 62
		flat := true
		if costs != nil {
			cost = make([]int64, shape.DP)
			for _, k := range alive {
				w := schedule.Worker{Stage: i, Pipeline: k}
				cost[k] = costs(w, schedule.F) + costs(w, schedule.BInput) + costs(w, schedule.BWeight)
				if cost[k] != cost[alive[0]] {
					flat = false
				}
				if cost[k] < minCost {
					minCost = cost[k]
				}
			}
		}
		routes[i] = make([][]int, shape.DP)
		if flat {
			// Homogeneous stage: the home worker when alive, otherwise live
			// peers round-robin, offset by the failed pipeline id so that
			// multiple failures at a stage spread differently.
			for k := 0; k < shape.DP; k++ {
				routes[i][k] = make([]int, shape.MB)
				if !failed[schedule.Worker{Stage: i, Pipeline: k}] {
					for j := range routes[i][k] {
						routes[i][k][j] = k
					}
					continue
				}
				for j := range routes[i][k] {
					routes[i][k][j] = alive[(j+k)%len(alive)]
				}
			}
			continue
		}
		// Heterogeneous stage: workers at the stage minimum keep their own
		// micro-batches; everything else — work of failed homes and of
		// demoted (slower-than-minimum) homes — is placed greedily on the
		// worker with the earliest projected finish, home winning ties.
		load := make([]int64, shape.DP)
		type mbRef struct{ home, mb int }
		var pending []mbRef
		for k := 0; k < shape.DP; k++ {
			routes[i][k] = make([]int, shape.MB)
			w := schedule.Worker{Stage: i, Pipeline: k}
			if !failed[w] && cost[k] == minCost {
				for j := range routes[i][k] {
					routes[i][k][j] = k
				}
				load[k] += cost[k] * int64(shape.MB)
				continue
			}
			for j := 0; j < shape.MB; j++ {
				pending = append(pending, mbRef{home: k, mb: j})
			}
		}
		for _, pj := range pending {
			home, j := pj.home, pj.mb
			best, bestFinish := -1, int64(1)<<62
			for _, k := range alive {
				finish := load[k] + cost[k]
				better := finish < bestFinish
				if finish == bestFinish && best >= 0 {
					// Ties: prefer the home worker, then the lower pipeline id.
					better = k == home && best != home
				}
				if better {
					best, bestFinish = k, finish
				}
			}
			routes[i][home][j] = best
			load[best] += cost[best]
		}
	}
	return routes, nil
}

// taskID indexes into state.tasks.
type taskID int32

// task is one node of the task graph. It has at most two successors — a
// forward feeds its own backward and the next stage's forward, a
// backward-input its weight gradient and the previous stage's backward —
// so they live inline.
type task struct {
	// What dispatch's scans read first shares one cache line.
	placed   bool
	critical bool // F / B / BInput
	nsucc    uint8
	predsN   int32
	readyAt  int64 // valid once predsN == 0
	release  int64 // earliest allowed start (fault-free pacing of unaffected work)
	wi       int32 // executor: index into state.workers
	cpos     int32 // critical tasks: index into the executor's crit stream
	op       schedule.Op
	dur      int64 // modeled duration on this task's executor (cost model)
	pos      int64 // skeleton priority (fault-free 1F1B position)
	alap     int64 // latest start that meets the stage deadline
	succ     [2]succ
}

// next returns the task's successors.
func (t *task) next() []succ { return t.succ[:t.nsucc] }

type succ struct {
	id   taskID
	comm int64 // edge latency added to the predecessor's end
}

// contributes reports whether ops of type t hand a weight gradient to their
// stage's all-reduce.
func contributes(t schedule.OpType) bool { return t == schedule.B || t == schedule.BWeight }

type workerState struct {
	w    schedule.Worker
	durs [schedule.Optimizer + 1]int64 // cost model per op type
	free int64
	held int // in-flight activation units
	crit []taskID
	// ready has bit i set while crit[i] is unplaced and predecessor-free,
	// so dispatch walks what is ready rather than what remains; no word
	// of ready below readyLo has a bit set.
	ready    []uint64
	readyLo  int
	bwPool   []taskID // ready BWeight tasks in FIFO order, from bwHead on
	bwHead   int
	optNext  int   // iteration of the first unplaced optimizer step
	arrived  bool  // waiting at the current optimizer barrier
	critLeft []int // unplaced critical ops per iteration
	bwLeft   []int // unplaced BWeight ops per iteration
	window   int   // 1F1B forward-ahead window: PP - stage + rerouted MBs
	ahead    int   // forwards placed minus backward-inputs placed
	memCap   int   // in-flight activation cap (0 = unlimited)
}

// firstReady returns the position of the first ready critical task in the
// worker's crit stream, or -1 when there is none, moving readyLo past the
// words that have emptied.
func (w *workerState) firstReady() int {
	for w.readyLo < len(w.ready) && w.ready[w.readyLo] == 0 {
		w.readyLo++
	}
	return w.nextReady(w.readyLo << 6)
}

// nextReady returns the position of the first ready critical task at or
// after position i of the worker's crit stream, or -1 when there is none.
func (w *workerState) nextReady(i int) int {
	k := i >> 6
	if k >= len(w.ready) {
		return -1
	}
	word := w.ready[k] &^ (1<<(i&63) - 1)
	for word == 0 {
		if k++; k == len(w.ready) {
			return -1
		}
		word = w.ready[k]
	}
	return k<<6 | bits.TrailingZeros64(word)
}

// event wakes a worker at a given time.
type event struct {
	t int64
	w int // worker index
}

// eventQueue is a typed binary min-heap ordered by (time, worker). The
// event loop is hot enough that the interface boxing of container/heap
// showed in profiles, so the sift operations are implemented directly.
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) less(i, j int) bool {
	return q[i].t < q[j].t || (q[i].t == q[j].t && q[i].w < q[j].w)
}

// optGroup is one optimizer barrier: its members step together at the
// latest arrival.
type optGroup struct {
	arrived  int
	arriveAt int64
}

// gradCount is one (iteration, stage) all-reduce: how many of the stage's
// DP·MB weight gradients are outstanding and the latest end among those
// that landed. It stands in for DP·MB edges into every optimizer of the
// stage. (applyALAP loses nothing without those edges: an optimizer's
// ALAP finish is MaxInt64/4, which never bounds a backward's deadline.)
type gradCount struct {
	left int32
	end  int64
}

// land records a gradient ending at end and reports whether it was the last.
func (g *gradCount) land(end int64) bool {
	g.end = max(g.end, end)
	g.left--
	return g.left == 0
}

// refKey is what the fault-free skeleton tables depend on: the stage and
// micro-batch counts and the durations. Its zero value names no skeleton
// (a Shape has PP >= 1).
type refKey struct {
	pp, mb int
	d      schedule.Durations
}

// state is one solve's task graph and dispatch state, indexed densely by
// the Shape and pooled (statePool) with every buffer in it.
type state struct {
	in      Input
	tasks   []task
	workers []workerState
	// widx maps Shape.WorkerIndex to the index in workers (-1 = failed);
	// rerouted counts, per Shape.WorkerIndex, the micro-batches the worker
	// runs for other pipelines; pipeFailed marks pipelines that lost a
	// worker; refF, refB and refBEnd hold the fault-free skeleton's F
	// start, B start and B end at stage·MB + mb, and ffMakespan its
	// makespan, all timed for ref (reference).
	widx, rerouted      []int32
	pipeFailed          []bool
	refF, refB, refBEnd []int64
	ffMakespan          int64
	ref                 refKey
	col                 []taskID // per stage: the backward of the column being built
	// Iteration it's optimizer on worker wi is task optBase[it]+wi.
	// byStage lists the live workers stage by stage (see stageWorkers),
	// everyone lists them all. grads is indexed by Shape.StageIndex, groups
	// by group.
	optBase                     []taskID
	byStage, stageOff, everyone []int32
	grads                       []gradCount
	groups                      []optGroup
	events                      eventQueue
	// wake[w] is the earliest pending wake event for worker w (MaxInt64
	// when none); duplicate wake pushes are dropped to keep the event
	// queue O(workers).
	wake       []int64
	placements []schedule.Placement
	unplaced   int
	// Scratch of applyALAP.
	indeg []int32
	order []taskID
}

// wakeAt schedules worker wi to be dispatched at time t, deduplicating
// against an already-pending earlier wake.
func (s *state) wakeAt(wi int, t int64) {
	if s.wake[wi] <= t {
		return
	}
	s.wake[wi] = t
	s.events.pushEvent(event{t: t, w: wi})
}

// pushEvent adds an event to the queue (sift-up).
func (q *eventQueue) pushEvent(e event) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// popEvent removes and returns the earliest event (sift-down).
func (q *eventQueue) popEvent() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top
}
