package schedule

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Shape describes the geometry a schedule was built for.
type Shape struct {
	DP   int // data-parallel pipelines
	PP   int // pipeline stages
	MB   int // micro-batches per pipeline per iteration
	Iter int // iterations the schedule is unrolled over (>= 1)
}

// Validate reports whether the shape is internally consistent.
func (s Shape) Validate() error {
	if s.DP < 1 || s.PP < 1 || s.MB < 1 || s.Iter < 1 {
		return fmt.Errorf("schedule: invalid shape %+v", s)
	}
	return nil
}

// The dense op index. Every op of a schedule lives in the rectangle its
// Shape bounds, so the failure path (Compile, Validate, replay.Splice) keys
// its bookkeeping by position in that rectangle — slices of int32 initialised
// to -1 — instead of by struct-keyed maps. All helpers bounds-check: an op
// outside the Shape has index -1, never an out-of-range one.

// Triples returns how many (iter, stage, home, mb) micro-batch triples the
// shape holds — the length of a table indexed by TripleIndex — or -1 when
// the shape is invalid or the count does not fit an int32.
func (s Shape) Triples() int {
	if s.Validate() != nil {
		return -1
	}
	n := int64(1)
	for _, d := range [...]int{s.Iter, s.PP, s.DP, s.MB} {
		if n *= int64(d); n > math.MaxInt32 || int64(d) > math.MaxInt32 {
			return -1
		}
	}
	return int(n)
}

// Indexable reports whether tables indexed by TripleIndex may be allocated
// for a schedule of n ops. A complete schedule places at least two ops per
// triple, so a shape claiming more triples than ops (beyond a small table
// that is always affordable) is incomplete or corrupt — shapes arrive off
// the wire — and must not size an allocation.
func (s Shape) Indexable(n int) bool {
	t := s.Triples()
	return t > 0 && (t <= n || t <= 1<<12)
}

// TripleIndex returns ((iter·PP + stage)·DP + home)·MB + mb, the position
// of a micro-batch triple in (iter, stage, home, mb) order, or -1 when it
// lies outside the shape.
func (s Shape) TripleIndex(iter, stage, home, mb int) int {
	if iter < 0 || iter >= s.Iter || stage < 0 || stage >= s.PP || home < 0 || home >= s.DP || mb < 0 || mb >= s.MB {
		return -1
	}
	return ((iter*s.PP+stage)*s.DP+home)*s.MB + mb
}

// StageIndex returns iter·PP + stage — the position of one stage's
// all-reduce group — or -1 outside the shape.
func (s Shape) StageIndex(iter, stage int) int {
	if iter < 0 || iter >= s.Iter || stage < 0 || stage >= s.PP {
		return -1
	}
	return iter*s.PP + stage
}

// WorkerIndex returns pipeline·PP + stage, the worker's position in
// (pipeline, stage) order — the order Workers lists them in — or -1 outside
// the shape.
func (s Shape) WorkerIndex(w Worker) int {
	if w.Stage < 0 || w.Stage >= s.PP || w.Pipeline < 0 || w.Pipeline >= s.DP {
		return -1
	}
	return w.Pipeline*s.PP + w.Stage
}

// WorkerAt is the inverse of WorkerIndex.
func (s Shape) WorkerAt(i int) Worker { return Worker{Stage: i % s.PP, Pipeline: i / s.PP} }

// OpIndex locates op in the shape: its worker index, its stage (all-reduce
// group) index and, for compute ops, its triple index (-1 for an optimizer).
// ok is false when any of them falls outside the shape.
func (s Shape) OpIndex(op Op) (worker, stage, triple int, ok bool) {
	worker, stage, triple = s.WorkerIndex(op.Worker()), s.StageIndex(op.Iter, op.Stage), -1
	if op.Type != Optimizer {
		triple = s.TripleIndex(op.Iter, op.Stage, op.Home, op.MB)
		ok = triple >= 0
	} else {
		ok = true
	}
	return worker, stage, triple, ok && worker >= 0 && stage >= 0
}

// The op slot layout. Tables that hold one entry per op of a schedule index
// it by op slot: triple k owns slots 3k (its F), 3k+1 (its BInput, or the
// coupled B that stands in for it) and 3k+2 (its BWeight, or the coupled
// B), and one slot per (stage group, exec) optimizer follows every triple's.

// Slots returns the length of a table indexed by op slot, for a shape whose
// Triples are indexable.
func (s Shape) Slots() int { return 3*s.Triples() + s.Iter*s.PP*s.DP }

// Slot returns the op slot of an op of type t run by pipeline exec, at its
// position in the dense op index: its TripleIndex, or an optimizer's
// StageIndex. A coupled B answers its BInput slot.
func (s Shape) Slot(t OpType, at, exec int) int {
	switch t {
	case F:
		return 3 * at
	case BWeight:
		return 3*at + 2
	case Optimizer:
		return 3*s.Iter*s.PP*s.DP*s.MB + at*s.DP + exec
	}
	return 3*at + 1
}

// Input is one producer an op waits on: the op slot that holds it and the
// kind of edge its result travels on.
type Input struct {
	Slot int
	Kind DepKind
}

// String names the producer the way rejections spell it.
func (in Input) String() string {
	switch {
	case in.Kind == DepActivation:
		return "upstream forward"
	case in.Kind == DepGradient:
		return "downstream backward"
	case in.Slot%3 == 0:
		return "forward"
	}
	return "backward-input"
}

// AppendInputs is the dependency rule — the MILP's Eq. 2–4: it appends to
// dst what an op of type t at stage and triple waits on, and returns the
// extended slice. A forward waits on its upstream stage's forward (Eq. 2);
// a backward or backward-input on its own forward's activation stash and
// on its downstream stage's backward (Eq. 3); a backward-weight on its
// backward-input (Eq. 4). Re-routing a micro-batch moves none of this, and
// an optimizer waits on its stage's all-reduce Barrier instead, so it has
// no inputs. An op has at most two, so a [2]Input buffer never grows.
func (s Shape) AppendInputs(dst []Input, t OpType, stage, triple int) []Input {
	// One micro-batch's triples on adjacent stages lie DP·MB apart.
	switch t {
	case F:
		if stage > 0 {
			return append(dst, Input{3 * (triple - s.DP*s.MB), DepActivation})
		}
	case B, BInput:
		dst = append(dst, Input{3 * triple, DepLocal})
		if stage < s.PP-1 {
			return append(dst, Input{3*(triple+s.DP*s.MB) + 1, DepGradient})
		}
	case BWeight:
		return append(dst, Input{3*triple + 1, DepLocal})
	}
	return dst
}

// Schedule is a fully timed pipeline schedule: each op of each iteration
// placed on a worker at a start time. Placements are kept sorted by
// (Start, worker) for deterministic iteration.
type Schedule struct {
	Shape     Shape
	Durations Durations
	// Failed is the set of workers the schedule routes around.
	Failed map[Worker]bool
	// Placements holds every op placement, sorted by Start.
	Placements []Placement

	// The per-worker index is derived on first use: the failure path
	// (Compile, Validate, replay.Splice) reads Placements only, so a spliced
	// or cached schedule that nobody queries never pays for it.
	workerOnce sync.Once
	byWorker   map[Worker][]Placement
}

// sortKey is one placement's position in the canonical order: its start,
// its worker packed as exec<<32 | stage with the stage's sign bit flipped
// (so integer order is (exec, stage) order while both fit an int32), and
// its index in the unsorted slice.
type sortKey struct {
	start  int64
	worker int64
	index  int32
}

// packWorker packs a sortKey's worker: exec<<32 | stage, the stage's sign
// bit flipped.
func packWorker(exec, stage int) int64 { return int64(exec)<<32 | int64(uint32(stage)^1<<31) }

var sortKeyPool = sync.Pool{New: func() any { return new([]sortKey) }}

// New assembles a schedule from placements, sorting them in place into the
// canonical order: (Start, pipeline, stage), the op's rendering breaking the
// ties only zero-length or overlapping placements can produce. The schedule
// keeps ps. The sort runs over compact keys drawn from a pool and then
// permutes ps along the sorted keys' cycles, so in steady state New
// allocates only the Schedule; every comparison agrees with one of the
// placements themselves, so the order is the one sorting ps would give.
func New(shape Shape, d Durations, failed map[Worker]bool, ps []Placement) *Schedule {
	buf := sortKeyPool.Get().(*[]sortKey)
	keys := (*buf)[:0]
	packed := true // every exec and stage fits an int32
	for i, p := range ps {
		e, st := p.Op.Exec, p.Op.Stage
		packed = packed && e == int(int32(e)) && st == int(int32(st))
		keys = append(keys, sortKey{start: p.Start, worker: packWorker(e, st), index: int32(i)})
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		if packed && a.worker != b.worker {
			return cmp.Compare(a.worker, b.worker)
		}
		x, y := &ps[a.index].Op, &ps[b.index].Op
		if x.Exec != y.Exec {
			return cmp.Compare(x.Exec, y.Exec)
		}
		if x.Stage != y.Stage {
			return cmp.Compare(x.Stage, y.Stage)
		}
		return strings.Compare(x.String(), y.String())
	})
	// Position i takes the placement keys[i].index held; follow each cycle
	// once, marking a visited position by pointing its key at itself.
	for i := range keys {
		if int(keys[i].index) == i {
			continue
		}
		held := ps[i]
		for j := i; ; {
			k := int(keys[j].index)
			keys[j].index = int32(j)
			if k == i {
				ps[j] = held
				break
			}
			ps[j], j = ps[k], k
		}
	}
	*buf = keys
	sortKeyPool.Put(buf)
	return &Schedule{Shape: shape, Durations: d, Failed: failed, Placements: ps}
}

// workers returns the per-worker index, built on first use.
func (s *Schedule) workers() map[Worker][]Placement {
	s.workerOnce.Do(func() {
		s.byWorker = make(map[Worker][]Placement)
		for _, p := range s.Placements {
			w := p.Op.Worker()
			s.byWorker[w] = append(s.byWorker[w], p)
		}
	})
	return s.byWorker
}

// Worker returns the placements executed by w in start order.
func (s *Schedule) Worker(w Worker) []Placement { return s.workers()[w] }

// Workers returns every worker that executes at least one op, in
// (pipeline, stage) order.
func (s *Schedule) Workers() []Worker {
	byWorker := s.workers()
	ws := make([]Worker, 0, len(byWorker))
	for w := range byWorker {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Pipeline != ws[j].Pipeline {
			return ws[i].Pipeline < ws[j].Pipeline
		}
		return ws[i].Stage < ws[j].Stage
	})
	return ws
}

// Makespan returns the completion time of the last op of the given
// iteration among types in mask (nil mask = all types).
func (s *Schedule) Makespan(iter int, mask func(OpType) bool) int64 {
	var end int64
	for _, p := range s.Placements {
		if p.Op.Iter != iter {
			continue
		}
		if mask != nil && !mask(p.Op.Type) {
			continue
		}
		if p.End > end {
			end = p.End
		}
	}
	return end
}

// ComputeMakespan returns the completion time of the last F/B/BI/BW op of
// iteration iter — the paper's per-iteration slot counts (27, 36, 29)
// exclude the optimizer step.
func (s *Schedule) ComputeMakespan(iter int) int64 {
	return s.Makespan(iter, func(t OpType) bool { return t != Optimizer })
}

// SteadyPeriod estimates the steady-state iteration interval of an unrolled
// schedule: the difference between the compute makespans of the last two
// iterations. For a single-iteration schedule it falls back to the total
// makespan including the optimizer.
func (s *Schedule) SteadyPeriod() int64 {
	if s.Shape.Iter < 2 {
		return s.Makespan(0, nil)
	}
	last := s.Shape.Iter - 1
	return s.ComputeMakespan(last) - s.ComputeMakespan(last-1)
}

// BubbleSlots returns the total idle time across live workers within the
// compute span of iteration iter.
func (s *Schedule) BubbleSlots(iter int) int64 {
	span := s.ComputeMakespan(iter)
	start := int64(0)
	if iter > 0 {
		start = s.ComputeMakespan(iter - 1)
	}
	var busy int64
	var workers int64
	for w, ps := range s.workers() {
		if s.Failed[w] {
			continue
		}
		workers++
		for _, p := range ps {
			if p.Op.Iter != iter || p.Op.Type == Optimizer {
				continue
			}
			busy += p.End - p.Start
		}
	}
	return (span-start)*workers - busy
}

// OpCount returns the number of placements of the given type in iteration
// iter (type < 0 counts all).
func (s *Schedule) OpCount(iter int, t OpType) int {
	n := 0
	for _, p := range s.Placements {
		if p.Op.Iter == iter && (t < 0 || p.Op.Type == t) {
			n++
		}
	}
	return n
}

// ReroutedCount returns how many compute ops of iteration iter run on a
// data-parallel peer instead of their home worker.
func (s *Schedule) ReroutedCount(iter int) int {
	n := 0
	for _, p := range s.Placements {
		if p.Op.Iter == iter && p.Op.Type != Optimizer && p.Op.Rerouted() {
			n++
		}
	}
	return n
}
