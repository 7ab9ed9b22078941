package schedule

import (
	"fmt"
	"sort"
	"sync"
)

// DepKind classifies one explicit dependency edge of a compiled Program.
type DepKind int8

const (
	// DepActivation is a cross-stage forward edge: the consumer's forward
	// needs the upstream stage's activation (Eq. 2). Pays Durations.Comm.
	DepActivation DepKind = iota
	// DepGradient is a cross-stage backward edge: the consumer's
	// backward-input needs the downstream stage's input gradient (Eq. 3).
	// Pays Durations.Comm.
	DepGradient
	// DepLocal is a same-worker data dependency with no transport: the
	// backward needs its own forward's activation stash, and BWeight needs
	// its BInput's saved gradients (Eq. 4).
	DepLocal
	// DepAllReduce gates an optimizer step on a weight-gradient
	// contribution of its stage: every BWeight (or coupled B) of the stage
	// and iteration, on every live peer, must finish before any peer steps.
	// Compile never emits it into Deps — the Program's Barrier holds the
	// all-reduce once per stage group — but Producers spells a gated
	// optimizer's group out as edges of this kind for recorders and audits.
	DepAllReduce
)

// String implements fmt.Stringer.
func (k DepKind) String() string {
	switch k {
	case DepActivation:
		return "act"
	case DepGradient:
		return "grad"
	case DepLocal:
		return "local"
	case DepAllReduce:
		return "allreduce"
	default:
		return fmt.Sprintf("DepKind(%d)", int8(k))
	}
}

// Dep is one incoming edge of an instruction: the producing instruction's
// index and the edge kind (which decides whether communication latency is
// charged on top of the producer's completion).
type Dep struct {
	From int
	Kind DepKind
}

// Instr is one instruction of a compiled Program: an op plus its explicit
// dependency edges. Same-worker program order is NOT encoded as edges — it
// is implicit in the worker's stream — and neither is the all-reduce, which
// the Program's Barrier holds, so Deps carry only data dependencies.
type Instr struct {
	ID   int
	Op   Op
	Deps []Dep
	// Dur is the modeled duration of this instruction, stamped by Compile
	// from the schedule's placement span (End - Start). Under a
	// heterogeneous cost model this is the per-(stage, op, worker) number
	// the solver optimized against; both executors read it through
	// Program.DurOf, so the live runtime's timeline and the discrete-event
	// simulator consume exactly the durations the plan was solved with.
	// Zero means "not stamped" (hand-assembled programs) and falls back to
	// the homogeneous Durations.
	Dur int64
}

// Program is the executable form of a Schedule: per-worker instruction
// streams plus an explicit dependency graph. It is the single artifact both
// executors consume — internal/dtrain interprets it with real tensors and
// goroutines, internal/sim executes it in virtual time — so op ordering is
// decided here, once, and nowhere else.
type Program struct {
	Shape     Shape
	Durations Durations
	Failed    map[Worker]bool
	// Instrs holds every instruction, indexed by ID, in the schedule's
	// canonical global order.
	Instrs []Instr
	// Streams maps each worker to the IDs it executes, in execution order
	// (the schedule's start order for that worker).
	Streams map[Worker][]int
	// Barrier is the per-stage gradient all-reduce the optimizer steps
	// wait on. Hand-assembled Programs may leave it empty: then no
	// instruction is gated.
	Barrier Barrier

	workers []Worker
}

// Barrier is a Program's per-stage gradient all-reduce: each (iteration,
// stage) group's weight-gradient contributions — every B or BWeight of the
// group, rerouted ones on peers included — must all finish before any
// gated optimizer step of the group starts. It is one rendezvous per group,
// held once, where explicit edges would take DP·MB of them into every
// optimizer (DP²·MB·PP per iteration); executors keep one pending count
// and one running latest end per group, as the solver does.
type Barrier struct {
	// Gated marks, by instruction ID, the optimizer steps the barrier
	// gates: every optimizer Compile emits except those of a frozen
	// prefix, which ran before the splice and carry no edges.
	Gated []bool
	// Off and IDs list each group's contributions in CSR form: stage group
	// g = Shape.StageIndex(iter, stage) is IDs[Off[g]:Off[g+1]], in
	// increasing instruction order.
	Off, IDs []int32
}

// Gates reports whether the barrier gates instruction id.
func (b *Barrier) Gates(id int) bool { return uint(id) < uint(len(b.Gated)) && b.Gated[id] }

// Group returns the contribution IDs of stage group g, nil outside the
// barrier.
func (b *Barrier) Group(g int) []int32 {
	if g < 0 || g+1 >= len(b.Off) {
		return nil
	}
	return b.IDs[b.Off[g]:b.Off[g+1]]
}

// contributes reports whether an op of type t feeds its stage's gradient
// all-reduce.
func contributes(t OpType) bool { return t == B || t == BWeight }

// barrierGroups lists every stage group's contributions, in instruction
// order, as the CSR pair a Barrier holds, carved from one slab. Counts land
// in off[g], an inclusive prefix sum leaves off[g] at g's end, and a
// reverse fill walks each back to g's start. Every contribution must lie in
// the shape.
func barrierGroups(sh Shape, instrs []Instr) (off, ids []int32, err error) {
	groups, n := sh.Iter*sh.PP, 0
	for i := range instrs {
		if contributes(instrs[i].Op.Type) {
			n++
		}
	}
	slab := make([]int32, groups+1+n)
	off, ids = slab[:groups+1:groups+1], slab[groups+1:]
	for i := range instrs {
		if op := &instrs[i].Op; contributes(op.Type) {
			g := sh.StageIndex(op.Iter, op.Stage)
			if g < 0 {
				return nil, nil, fmt.Errorf("schedule: program: %s lies outside shape %+v", *op, sh)
			}
			off[g]++
		}
	}
	for g := 1; g <= groups; g++ {
		off[g] += off[g-1]
	}
	for i := len(instrs) - 1; i >= 0; i-- {
		if op := &instrs[i].Op; contributes(op.Type) {
			g := sh.StageIndex(op.Iter, op.Stage)
			off[g]--
			ids[off[g]] = int32(i)
		}
	}
	return off, ids, nil
}

// Producers returns instruction id's incoming edges with the barrier
// spelled out: a gated optimizer's group contributions follow its Deps as
// DepAllReduce edges, in the group's order. Any other instruction's Deps
// come back as they are. A gated optimizer's list is built on each call,
// so this serves recorders and audits, not an executor's inner loop.
func (p *Program) Producers(id int) []Dep {
	deps := p.Instrs[id].Deps
	if !p.Barrier.Gates(id) {
		return deps
	}
	op := p.Instrs[id].Op
	group := p.Barrier.Group(p.Shape.StageIndex(op.Iter, op.Stage))
	out := make([]Dep, len(deps), len(deps)+len(group))
	copy(out, deps)
	for _, c := range group {
		out = append(out, Dep{From: int(c), Kind: DepAllReduce})
	}
	return out
}

// NewProgram assembles and validates a Program from parts already in
// Compile's layout — the constructor a decoder uses. workers must list the
// keys of streams, each stream non-empty, in (pipeline, stage) order; it
// becomes the precomputed list Workers returns. gated marks the optimizers
// the barrier gates, by instruction ID (nil gates none); the barrier's
// contribution lists are rebuilt from the instructions.
func NewProgram(sh Shape, d Durations, failed map[Worker]bool, instrs []Instr, streams map[Worker][]int, workers []Worker, gated []bool) (*Program, error) {
	if !sh.Indexable(len(instrs)) {
		return nil, fmt.Errorf("schedule: program: %d instructions cannot cover shape %+v", len(instrs), sh)
	}
	if len(workers) != len(streams) {
		return nil, fmt.Errorf("schedule: program: %d workers listed for %d streams", len(workers), len(streams))
	}
	prev := -1
	for _, w := range workers {
		at := sh.WorkerIndex(w)
		if at <= prev {
			return nil, fmt.Errorf("schedule: program: stream of %s is outside shape %+v or out of (pipeline, stage) order", w, sh)
		}
		prev = at
		if len(streams[w]) == 0 {
			return nil, fmt.Errorf("schedule: program: %s is listed without a stream", w)
		}
	}
	off, ids, err := barrierGroups(sh, instrs)
	if err != nil {
		return nil, err
	}
	p := &Program{Shape: sh, Durations: d, Failed: failed, Instrs: instrs, Streams: streams,
		Barrier: Barrier{Gated: gated, Off: off, IDs: ids}, workers: workers}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Workers returns every worker with a non-empty stream in (pipeline, stage)
// order. Compiled and decoded programs carry a precomputed list;
// hand-assembled ones (tests, fuzzing) derive it from the streams on each call.
func (p *Program) Workers() []Worker {
	if p.workers != nil {
		return p.workers
	}
	return sortedWorkers(p.Streams)
}

// sortedWorkers lists the stream keys in (pipeline, stage) order.
func sortedWorkers(streams map[Worker][]int) []Worker {
	ws := make([]Worker, 0, len(streams))
	for w := range streams {
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

// EdgeLatency returns the transport latency charged on an edge kind under
// the given duration set: cross-stage activation/gradient sends pay Comm,
// local and barrier edges are free. The rule lives on Durations — not on
// Program — so an executor substituting its own durations (the simulator's
// ProgramOptions.Durations) charges edges by the same single rule the
// runtime uses.
func (d Durations) EdgeLatency(k DepKind) int64 {
	if k == DepActivation || k == DepGradient {
		return d.Comm
	}
	return 0
}

// EdgeLatency returns the transport latency charged on an edge kind under
// the program's own durations.
func (p *Program) EdgeLatency(k DepKind) int64 { return p.Durations.EdgeLatency(k) }

// DurOf returns the modeled duration of instruction id: the stamped
// per-instruction duration when the program was compiled from a timed
// schedule, falling back to the homogeneous per-op-type Durations for
// hand-assembled programs. This is the single duration rule shared by the
// live runtime and the discrete-event simulator.
func (p *Program) DurOf(id int) int64 {
	if d := p.Instrs[id].Dur; d > 0 {
		return d
	}
	return p.Durations.Of(p.Instrs[id].Op.Type)
}

// compileScratch is Compile's working set, pooled so that the splice path
// (one Compile per membership event) allocates only what the Program keeps.
// Tables are indexed by the Shape's dense op index and hold instruction IDs,
// -1 for "absent".
type compileScratch struct {
	fID, biID, bwID []int32 // per triple: F, BInput-or-B, BWeight-or-B
	optAt           []int32 // per (stage group, exec): Optimizer
	streamOff       []int32 // per worker: offset into the stream slab (CSR)
}

var compilePool = sync.Pool{New: func() any { return new(compileScratch) }}

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

// Compile lowers a schedule into a Program. Every placement becomes one
// instruction; cross-stage activation/gradient edges and same-worker data
// dependencies are made explicit, and every optimizer is gated on its
// stage's all-reduce Barrier. The schedule must be complete (every op of
// every micro-batch placed exactly once); Compile reports schedules it
// cannot lower.
func Compile(s *Schedule) (*Program, error) { return CompileFrozen(s, 0) }

// CompileFrozen lowers a spliced schedule whose executed prefix is frozen:
// placements ending at or before frozenBefore already ran pre-event, so no
// dependency edges are attached into them, and the barrier does not gate a
// frozen optimizer — their inputs were consumed in the pre-splice
// timeline, and a producer they historically read from may be re-placed
// after the cut (to re-materialize state a victim lost), which would
// otherwise put a back-edge into the past and a spurious cycle into the
// graph. Executors never consult a frozen instruction's edges — the prefix
// is installed as done — so only dead edges are dropped.
// frozenBefore <= 0 compiles normally.
//
// Producers are looked up through the Shape's dense op index, and the
// Program's Deps, Streams and barrier lists are carved out of one slab
// each.
func CompileFrozen(s *Schedule, frozenBefore int64) (*Program, error) {
	if s == nil {
		return nil, fmt.Errorf("schedule: cannot compile a nil schedule")
	}
	if err := s.Shape.Validate(); err != nil {
		return nil, err
	}
	sh, n := s.Shape, len(s.Placements)
	if !sh.Indexable(n) {
		return nil, fmt.Errorf("schedule: compile: %d placements cannot cover shape %+v", n, sh)
	}
	p := &Program{
		Shape:     sh,
		Durations: s.Durations,
		Failed:    s.Failed,
		Instrs:    make([]Instr, n),
	}
	sc := compilePool.Get().(*compileScratch)
	defer compilePool.Put(sc)
	triples, groups, nw := sh.Triples(), sh.Iter*sh.PP, sh.DP*sh.PP
	sc.fID = filled(sc.fID, triples, -1)
	sc.biID = filled(sc.biID, triples, -1)
	sc.bwID = filled(sc.bwID, triples, -1)
	sc.optAt = filled(sc.optAt, groups*sh.DP, -1)
	sc.streamOff = filled(sc.streamOff, nw+1, 0)
	fID, biID, bwID, optAt, streamOff := sc.fID, sc.biID, sc.bwID, sc.optAt, sc.streamOff
	frozen := func(i int) bool { return frozenBefore > 0 && s.Placements[i].End <= frozenBefore }

	// First pass: materialize instructions in the schedule's canonical
	// order, index the producers of every data dependency, and count what
	// the slabs must hold (counts land one slot up, for the prefix sums).
	edges := 0
	for i, pl := range s.Placements {
		op := pl.Op
		p.Instrs[i] = Instr{ID: i, Op: op, Dur: pl.End - pl.Start}
		w, g, k, ok := sh.OpIndex(op)
		if !ok {
			return nil, fmt.Errorf("schedule: compile: %s lies outside shape %+v", op, sh)
		}
		streamOff[w+1]++
		deps := 1
		switch op.Type {
		case F:
			if prev := fID[k]; prev >= 0 {
				return nil, fmt.Errorf("schedule: compile: duplicate F for %s (instr %d and %d)", op, prev, i)
			}
			fID[k] = int32(i)
			if op.Stage == 0 {
				deps = 0
			}
		case B:
			if prev := biID[k]; prev >= 0 {
				return nil, fmt.Errorf("schedule: compile: duplicate backward for %s (instr %d and %d)", op, prev, i)
			}
			if prev := bwID[k]; prev >= 0 {
				return nil, fmt.Errorf("schedule: compile: duplicate weight gradient for %s (instr %d and %d)", op, prev, i)
			}
			biID[k], bwID[k] = int32(i), int32(i)
			if op.Stage < sh.PP-1 {
				deps = 2
			}
		case BInput:
			if prev := biID[k]; prev >= 0 {
				return nil, fmt.Errorf("schedule: compile: duplicate BInput for %s (instr %d and %d)", op, prev, i)
			}
			biID[k] = int32(i)
			if op.Stage < sh.PP-1 {
				deps = 2
			}
		case BWeight:
			if prev := bwID[k]; prev >= 0 {
				return nil, fmt.Errorf("schedule: compile: duplicate BWeight for %s (instr %d and %d)", op, prev, i)
			}
			bwID[k] = int32(i)
		case Optimizer:
			ko := g*sh.DP + op.Exec
			if prev := optAt[ko]; prev >= 0 {
				return nil, fmt.Errorf("schedule: compile: duplicate optimizer for %s (instr %d and %d)", op, prev, i)
			}
			optAt[ko] = int32(i)
			deps = 0 // the barrier, not edges
		default:
			deps = 0
		}
		if !frozen(i) {
			edges += deps
		}
	}
	// Count -> prefix sum -> fill: per-worker streams in instruction order.
	for w := 0; w < nw; w++ {
		streamOff[w+1] += streamOff[w]
	}
	streams := make([]int, n)
	for i := range p.Instrs {
		w := sh.WorkerIndex(p.Instrs[i].Op.Worker())
		streams[streamOff[w]] = i
		streamOff[w]++
	}
	// The fill advanced every offset to its worker's end, i.e. to the next
	// worker's start: worker w now spans [off[w-1], off[w]).
	span := func(w int) (lo, hi int32) {
		if w > 0 {
			lo = streamOff[w-1]
		}
		return lo, streamOff[w]
	}
	off, ids, err := barrierGroups(sh, p.Instrs)
	if err != nil {
		return nil, err
	}
	p.Barrier = Barrier{Gated: make([]bool, n), Off: off, IDs: ids}

	// Second pass: attach the explicit dependency edges and gate the
	// optimizers.
	deps := make([]Dep, 0, edges)
	stride := sh.DP * sh.MB // triple-index distance between adjacent stages
	for i := range p.Instrs {
		if frozen(i) {
			continue // frozen prefix: executed pre-event, edges are dead
		}
		op := p.Instrs[i].Op
		k := sh.TripleIndex(op.Iter, op.Stage, op.Home, op.MB)
		first := len(deps)
		switch op.Type {
		case F:
			if op.Stage > 0 {
				up := fID[k-stride]
				if up < 0 {
					return nil, fmt.Errorf("schedule: compile: %s has no upstream forward", op)
				}
				deps = append(deps, Dep{From: int(up), Kind: DepActivation})
			}
		case B, BInput:
			f := fID[k]
			if f < 0 {
				return nil, fmt.Errorf("schedule: compile: %s has no forward", op)
			}
			deps = append(deps, Dep{From: int(f), Kind: DepLocal})
			if op.Stage < sh.PP-1 {
				down := biID[k+stride]
				if down < 0 {
					return nil, fmt.Errorf("schedule: compile: %s has no downstream backward", op)
				}
				deps = append(deps, Dep{From: int(down), Kind: DepGradient})
			}
		case BWeight:
			bi := biID[k]
			if bi < 0 {
				return nil, fmt.Errorf("schedule: compile: %s has no backward-input", op)
			}
			deps = append(deps, Dep{From: int(bi), Kind: DepLocal})
		case Optimizer:
			// The per-stage gradient all-reduce: every weight gradient of
			// this stage and iteration — including rerouted ones computed on
			// peers — gates every peer's step. A complete schedule carries
			// exactly DP*MB of them; fewer means a weight gradient is
			// missing and the barrier would silently weaken. Validate checks
			// the same count; this names the optimizer where it is found.
			if got, want := len(p.Barrier.Group(sh.StageIndex(op.Iter, op.Stage))), sh.DP*sh.MB; got != want {
				return nil, fmt.Errorf("schedule: compile: %s gates on %d weight gradients, want %d", op, got, want)
			}
			p.Barrier.Gated[i] = true
		}
		if len(deps) > first {
			p.Instrs[i].Deps = deps[first:len(deps):len(deps)]
		}
	}
	p.Streams = make(map[Worker][]int)
	for w := 0; w < nw; w++ {
		if lo, hi := span(w); hi > lo {
			p.Streams[sh.WorkerAt(w)] = streams[lo:hi:hi]
			p.workers = append(p.workers, sh.WorkerAt(w))
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks the Program's structural invariants: every edge points at
// an existing instruction and relates ops the way its kind claims
// (edge consistency), streams partition the instruction set, the barrier
// lists every weight gradient of its group and a gated optimizer's group
// is complete (checkBarrier), and the graph formed by dependency edges,
// the barrier and same-worker stream order admits a topological order
// (deadlock-freedom — an executor that runs streams in order and blocks on
// edges and barriers can always make progress).
func (p *Program) Validate() error {
	n := len(p.Instrs)
	seen := make([]bool, n)
	for w, stream := range p.Streams {
		for _, id := range stream {
			if id < 0 || id >= n {
				return fmt.Errorf("schedule: program: stream of %s references instruction %d outside [0,%d)", w, id, n)
			}
			if seen[id] {
				return fmt.Errorf("schedule: program: instruction %d appears in two streams", id)
			}
			seen[id] = true
			if got := p.Instrs[id].Op.Worker(); got != w {
				return fmt.Errorf("schedule: program: instruction %d (%s) filed under worker %s", id, p.Instrs[id].Op, w)
			}
		}
	}
	for i := range seen {
		if !seen[i] {
			return fmt.Errorf("schedule: program: instruction %d (%s) is in no stream", i, p.Instrs[i].Op)
		}
	}
	for i := range p.Instrs {
		to := p.Instrs[i].Op
		for _, d := range p.Instrs[i].Deps {
			if d.From < 0 || d.From >= n {
				return fmt.Errorf("schedule: program: instruction %d depends on %d outside [0,%d)", i, d.From, n)
			}
			from := p.Instrs[d.From].Op
			if err := checkEdge(from, to, d.Kind); err != nil {
				return fmt.Errorf("schedule: program: edge %d->%d: %w", d.From, i, err)
			}
		}
	}
	if err := p.checkBarrier(); err != nil {
		return err
	}
	return p.checkAcyclic()
}

// checkBarrier verifies the all-reduce barrier: each group lists, strictly
// increasing, B or BWeight instructions of that group; together the lists
// hold every weight gradient of the Program; only optimizers are gated,
// and a gated optimizer's group lists exactly DP·MB entries — one per
// micro-batch of every pipeline. A Program without contribution lists may
// gate nothing, and is checked without consulting its Shape.
func (p *Program) checkBarrier() error {
	b, n, sh := &p.Barrier, len(p.Instrs), p.Shape
	if len(b.Gated) != 0 && len(b.Gated) != n {
		return fmt.Errorf("schedule: program: barrier gate bits cover %d of %d instructions", len(b.Gated), n)
	}
	if len(b.Off) == 0 {
		for i, gated := range b.Gated {
			if gated {
				return fmt.Errorf("schedule: program: barrier gates %s but lists no weight gradients", p.Instrs[i].Op)
			}
		}
		if len(b.IDs) > 0 {
			return fmt.Errorf("schedule: program: barrier lists %d weight gradients without groups", len(b.IDs))
		}
		return nil
	}
	if sh.Triples() < 0 || len(b.Off) != sh.Iter*sh.PP+1 {
		return fmt.Errorf("schedule: program: barrier has %d group offsets for shape %+v", len(b.Off), sh)
	}
	if b.Off[0] != 0 || int(b.Off[len(b.Off)-1]) != len(b.IDs) {
		return fmt.Errorf("schedule: program: barrier offsets do not span its %d weight gradients", len(b.IDs))
	}
	for g := 0; g+1 < len(b.Off); g++ {
		if b.Off[g] > b.Off[g+1] || int(b.Off[g+1]) > len(b.IDs) {
			return fmt.Errorf("schedule: program: barrier group %d spans [%d,%d) of %d weight gradients", g, b.Off[g], b.Off[g+1], len(b.IDs))
		}
		prev := int32(-1)
		for _, c := range b.Group(g) {
			if c <= prev || int(c) >= n {
				return fmt.Errorf("schedule: program: barrier group %d lists instruction %d out of order or outside [0,%d)", g, c, n)
			}
			if op := &p.Instrs[c].Op; !contributes(op.Type) || sh.StageIndex(op.Iter, op.Stage) != g {
				return fmt.Errorf("schedule: program: barrier group %d lists %s, not one of its weight gradients", g, op)
			}
			prev = c
		}
	}
	contribs := 0
	for i := range p.Instrs {
		t := p.Instrs[i].Op.Type
		if contributes(t) {
			contribs++
		}
		if !b.Gates(i) {
			continue
		}
		op := &p.Instrs[i].Op
		if t != Optimizer {
			return fmt.Errorf("schedule: program: barrier gates %s, which is not an optimizer", op)
		}
		if got, want := len(b.Group(sh.StageIndex(op.Iter, op.Stage))), sh.DP*sh.MB; got != want {
			return fmt.Errorf("schedule: program: %s gates on %d weight gradients, want %d", op, got, want)
		}
	}
	if contribs != len(b.IDs) {
		return fmt.Errorf("schedule: program: barrier lists %d of the %d weight gradients", len(b.IDs), contribs)
	}
	return nil
}

// checkEdge verifies one edge relates the ops its kind claims.
func checkEdge(from, to Op, k DepKind) error {
	sameMB := from.Iter == to.Iter && from.MB == to.MB && from.Home == to.Home
	switch k {
	case DepActivation:
		if from.Type != F || to.Type != F || !sameMB || from.Stage != to.Stage-1 {
			return fmt.Errorf("activation edge must link F(i-1) to F(i) of one micro-batch: %s -> %s", from, to)
		}
	case DepGradient:
		if (from.Type != B && from.Type != BInput) || (to.Type != B && to.Type != BInput) || !sameMB || from.Stage != to.Stage+1 {
			return fmt.Errorf("gradient edge must link backward(i+1) to backward(i) of one micro-batch: %s -> %s", from, to)
		}
	case DepLocal:
		if from.Worker() != to.Worker() || !sameMB || from.Stage != to.Stage {
			return fmt.Errorf("local edge must stay on one worker and micro-batch: %s -> %s", from, to)
		}
	case DepAllReduce:
		if (from.Type != BWeight && from.Type != B) || to.Type != Optimizer || from.Stage != to.Stage || from.Iter != to.Iter {
			return fmt.Errorf("all-reduce edge must link a weight gradient to its stage optimizer: %s -> %s", from, to)
		}
	default:
		return fmt.Errorf("unknown edge kind %v", k)
	}
	return nil
}

// acyclicScratch is checkAcyclic's working set (pooled, see compileScratch).
type acyclicScratch struct {
	indeg   []int32 // per node: unresolved incoming edges
	succOff []int32 // per node: offset into succ (CSR)
	succ    []int32 // successor nodes
	queue   []int32
}

var acyclicPool = sync.Pool{New: func() any { return new(acyclicScratch) }}

// checkAcyclic runs Kahn's algorithm over dependency edges, implicit
// same-worker stream edges and the barrier. Instruction i is node i, and
// stage group g's barrier is one more node, n+g: an edge from each of the
// group's contributions into it, and one from it into each optimizer it
// gates — a cycle through the barrier is a cycle of the edges it stands
// for. Validate has already bounds-checked every edge, stream entry and
// barrier list.
func (p *Program) checkAcyclic() error {
	n, b := len(p.Instrs), &p.Barrier
	nodes := n + max(len(b.Off)-1, 0)
	gate := func(i int) int { // the barrier node gating optimizer i
		op := &p.Instrs[i].Op
		return n + p.Shape.StageIndex(op.Iter, op.Stage)
	}
	sc := acyclicPool.Get().(*acyclicScratch)
	defer acyclicPool.Put(sc)
	sc.indeg = filled(sc.indeg, nodes, 0)
	sc.succOff = filled(sc.succOff, nodes+1, 0)
	indeg, succOff := sc.indeg, sc.succOff
	// Count out-degrees one slot up, prefix-sum them into start offsets,
	// then fill; the fill leaves succOff[i] at the end of i's successors.
	edges := len(b.IDs)
	for i := range p.Instrs {
		for _, d := range p.Instrs[i].Deps {
			succOff[d.From+1]++
		}
		indeg[i] = int32(len(p.Instrs[i].Deps))
		edges += len(p.Instrs[i].Deps)
		if b.Gates(i) {
			succOff[gate(i)+1]++
			indeg[i]++
			edges++
		}
	}
	for _, stream := range p.Streams {
		for j := 1; j < len(stream); j++ {
			succOff[stream[j-1]+1]++
			indeg[stream[j]]++
		}
		edges += max(len(stream)-1, 0)
	}
	for g := n; g < nodes; g++ {
		group := b.Group(g - n)
		for _, c := range group {
			succOff[c+1]++
		}
		indeg[g] = int32(len(group))
	}
	for i := 0; i < nodes; i++ {
		succOff[i+1] += succOff[i]
	}
	sc.succ = filled(sc.succ, edges, 0)
	succ := sc.succ
	link := func(from, to int) {
		succ[succOff[from]] = int32(to)
		succOff[from]++
	}
	for i := range p.Instrs {
		for _, d := range p.Instrs[i].Deps {
			link(d.From, i)
		}
		if b.Gates(i) {
			link(gate(i), i)
		}
	}
	for _, stream := range p.Streams {
		for j := 1; j < len(stream); j++ {
			link(stream[j-1], stream[j])
		}
	}
	for g := n; g < nodes; g++ {
		for _, c := range b.Group(g - n) {
			link(int(c), g)
		}
	}
	queue := filled(sc.queue, nodes, 0)[:0]
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(i))
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if int(i) < n {
			done++
		}
		lo := int32(0)
		if i > 0 {
			lo = succOff[i-1]
		}
		for _, s := range succ[lo:succOff[i]] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	sc.queue = queue
	if done != n {
		return fmt.Errorf("schedule: program deadlocks: %d of %d instructions are on a dependency cycle", n-done, n)
	}
	return nil
}

// OpCount returns the number of instructions of the given type (t < 0
// counts all).
func (p *Program) OpCount(t OpType) int {
	n := 0
	for i := range p.Instrs {
		if t < 0 || p.Instrs[i].Op.Type == t {
			n++
		}
	}
	return n
}
