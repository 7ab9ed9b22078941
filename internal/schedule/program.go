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
// is implicit in the worker's stream — so Deps carry only data and barrier
// dependencies.
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

	workers []Worker
}

// NewProgram assembles and validates a Program from parts already in
// Compile's layout — the constructor a decoder uses. workers must list the
// keys of streams, each stream non-empty, in (pipeline, stage) order; it
// becomes the precomputed list Workers returns.
func NewProgram(sh Shape, d Durations, failed map[Worker]bool, instrs []Instr, streams map[Worker][]int, workers []Worker) (*Program, error) {
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
	p := &Program{Shape: sh, Durations: d, Failed: failed, Instrs: instrs, Streams: streams, workers: workers}
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
	contribOff      []int32 // per stage group: offset into contrib (CSR)
	contrib         []int32 // weight-gradient instruction IDs, grouped by stage group
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
// instruction; cross-stage activation/gradient edges, same-worker data
// dependencies and the per-stage all-reduce barriers are made explicit. The
// schedule must be complete (every op of every micro-batch placed exactly
// once); Compile reports schedules it cannot lower.
func Compile(s *Schedule) (*Program, error) { return CompileFrozen(s, 0) }

// CompileFrozen lowers a spliced schedule whose executed prefix is frozen:
// placements ending at or before frozenBefore already ran pre-event, so no
// dependency edges are attached into them — their inputs were consumed in
// the pre-splice timeline, and a producer they historically read from may
// be re-placed after the cut (to re-materialize state a victim lost),
// which would otherwise put a back-edge into the past and a spurious cycle
// into the graph. Executors never consult a frozen instruction's edges —
// the prefix is installed as done — so only dead edges are dropped.
// frozenBefore <= 0 compiles normally.
//
// Producers are looked up through the Shape's dense op index, and the
// Program's Deps and Streams are carved out of one slab each.
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
	sc.contribOff = filled(sc.contribOff, groups+1, 0)
	sc.streamOff = filled(sc.streamOff, nw+1, 0)
	fID, biID, bwID, optAt, contribOff, streamOff := sc.fID, sc.biID, sc.bwID, sc.optAt, sc.contribOff, sc.streamOff
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
			contribOff[g+1]++
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
			contribOff[g+1]++
		case Optimizer:
			ko := g*sh.DP + op.Exec
			if prev := optAt[ko]; prev >= 0 {
				return nil, fmt.Errorf("schedule: compile: duplicate optimizer for %s (instr %d and %d)", op, prev, i)
			}
			optAt[ko] = int32(i)
			deps = sh.DP * sh.MB
		default:
			deps = 0
		}
		if !frozen(i) {
			edges += deps
		}
	}
	// Count -> prefix sum -> fill: per-worker streams and per-stage-group
	// weight-gradient lists, both in instruction order.
	for g := 0; g < groups; g++ {
		contribOff[g+1] += contribOff[g]
	}
	for w := 0; w < nw; w++ {
		streamOff[w+1] += streamOff[w]
	}
	sc.contrib = filled(sc.contrib, int(contribOff[groups]), 0)
	contrib := sc.contrib
	streams := make([]int, n)
	for i := range p.Instrs {
		op := p.Instrs[i].Op
		w := sh.WorkerIndex(op.Worker())
		streams[streamOff[w]] = i
		streamOff[w]++
		if op.Type == B || op.Type == BWeight {
			g := sh.StageIndex(op.Iter, op.Stage)
			contrib[contribOff[g]] = int32(i)
			contribOff[g]++
		}
	}
	// The fill advanced every offset to its group's end, i.e. to the next
	// group's start: group g now spans [off[g-1], off[g]).
	span := func(off []int32, g int) (lo, hi int32) {
		if g > 0 {
			lo = off[g-1]
		}
		return lo, off[g]
	}

	// Second pass: attach the explicit dependency edges.
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
			// missing and the barrier would silently weaken.
			lo, hi := span(contribOff, sh.StageIndex(op.Iter, op.Stage))
			if got, want := int(hi-lo), sh.DP*sh.MB; got != want {
				return nil, fmt.Errorf("schedule: compile: %s gates on %d weight gradients, want %d", op, got, want)
			}
			for _, bw := range contrib[lo:hi] {
				deps = append(deps, Dep{From: int(bw), Kind: DepAllReduce})
			}
		}
		if len(deps) > first {
			p.Instrs[i].Deps = deps[first:len(deps):len(deps)]
		}
	}
	p.Streams = make(map[Worker][]int)
	for w := 0; w < nw; w++ {
		if lo, hi := span(streamOff, w); hi > lo {
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
// (edge consistency), streams partition the instruction set, and the graph
// formed by dependency edges plus same-worker stream order admits a
// topological order (deadlock-freedom — an executor that runs streams in
// order and blocks on edges can always make progress).
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
	return p.checkAcyclic()
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
	indeg   []int32 // per instruction: unresolved incoming edges
	succOff []int32 // per instruction: offset into succ (CSR)
	succ    []int32 // successor instruction IDs
	queue   []int32
}

var acyclicPool = sync.Pool{New: func() any { return new(acyclicScratch) }}

// checkAcyclic runs Kahn's algorithm over dependency edges plus implicit
// same-worker stream edges. Validate has already bounds-checked every edge
// and stream entry.
func (p *Program) checkAcyclic() error {
	n := len(p.Instrs)
	sc := acyclicPool.Get().(*acyclicScratch)
	defer acyclicPool.Put(sc)
	sc.indeg = filled(sc.indeg, n, 0)
	sc.succOff = filled(sc.succOff, n+1, 0)
	indeg, succOff := sc.indeg, sc.succOff
	// Count out-degrees one slot up, prefix-sum them into start offsets,
	// then fill; the fill leaves succOff[i] at the end of i's successors.
	edges := 0
	for i := range p.Instrs {
		for _, d := range p.Instrs[i].Deps {
			succOff[d.From+1]++
		}
		indeg[i] = int32(len(p.Instrs[i].Deps))
		edges += len(p.Instrs[i].Deps)
	}
	for _, stream := range p.Streams {
		for j := 1; j < len(stream); j++ {
			succOff[stream[j-1]+1]++
			indeg[stream[j]]++
		}
		edges += max(len(stream)-1, 0)
	}
	for i := 0; i < n; i++ {
		succOff[i+1] += succOff[i]
	}
	sc.succ = filled(sc.succ, edges, 0)
	succ := sc.succ
	for i := range p.Instrs {
		for _, d := range p.Instrs[i].Deps {
			succ[succOff[d.From]] = int32(i)
			succOff[d.From]++
		}
	}
	for _, stream := range p.Streams {
		for j := 1; j < len(stream); j++ {
			succ[succOff[stream[j-1]]] = int32(stream[j])
			succOff[stream[j-1]]++
		}
	}
	queue := filled(sc.queue, n, 0)[:0]
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(i))
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
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
