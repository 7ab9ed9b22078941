package schedule

import (
	"fmt"
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
// ID and the edge kind (which decides whether communication latency is
// charged on top of the producer's completion).
type Dep struct {
	From int32
	Kind DepKind
}

// Instr is one instruction of a compiled Program: 24 bytes holding no
// pointer, read through the Program's accessors (Op, Type, OpIndex, Deps,
// Gated, DurOf). Its ID is its position in Program.Instrs. Same-worker
// program order is NOT encoded as edges — it is implicit in the worker's
// stream — and neither is the all-reduce, which the Program's Barrier
// holds, so its edges carry only data dependencies.
type Instr struct {
	// Dur is the modeled duration of this instruction, stamped by Compile
	// from the schedule's placement span (End - Start). Under a
	// heterogeneous cost model this is the per-(stage, op, worker) number
	// the solver optimized against; both executors read it through
	// Program.DurOf, so the live runtime's timeline and the discrete-event
	// simulator consume exactly the durations the plan was solved with.
	// Zero means "not stamped" (hand-assembled programs) and falls back to
	// the homogeneous Durations.
	Dur int64
	// op is the op's position in the Shape's dense op index: its
	// TripleIndex, or an optimizer's StageIndex. The type is held apart
	// because B and BInput share a triple; an optimizer's MB is -1 and its
	// home is its executor, so exec completes the op.
	op     uint32
	exec   int32
	depOff uint32 // the instruction's first edge in Program.deps
	typ    OpType
	gated  bool // the barrier gates this optimizer step
}

// Program is the executable form of a Schedule: per-worker instruction
// streams plus an explicit dependency graph. It is the single artifact both
// executors consume — internal/dtrain interprets it with real tensors and
// goroutines, internal/sim executes it in virtual time — so op ordering is
// decided here, once, and nowhere else.
//
// Its memory is a handful of pointer-free slabs: the instructions, one edge
// slab every instruction's edges are a window of, and one int32 slab holding
// the streams in CSR form (per-worker offsets by Shape.WorkerIndex) and the
// barrier's lists — plus, when it was solved under a cost model, the cost
// table its splices time re-planned work with.
type Program struct {
	Shape     Shape
	Durations Durations
	Failed    map[Worker]bool
	// Instrs holds every instruction in the schedule's canonical global
	// order; an instruction's ID is its position.
	Instrs []Instr
	// Barrier is the per-stage gradient all-reduce the optimizer steps
	// wait on.
	Barrier Barrier

	deps      []Dep    // every instruction's edges, instruction i's from Instrs[i].depOff
	streams   []int32  // every worker's instruction IDs in execution order
	streamOff []int32  // per WorkerIndex w: streams[streamOff[w]:streamOff[w+1]] is w's stream
	workers   []Worker // the workers with a non-empty stream, in (pipeline, stage) order
	costs     []int64  // the cost table (see Cost); empty when every worker runs Durations
}

// Barrier is a Program's per-stage gradient all-reduce: each (iteration,
// stage) group's weight-gradient contributions — every B or BWeight of the
// group, rerouted ones on peers included — must all finish before any
// gated optimizer step of the group starts. It is one rendezvous per group,
// held once, where explicit edges would take DP·MB of them into every
// optimizer (DP²·MB·PP per iteration); executors keep one pending count
// and one running latest end per group, as the solver does. The optimizers
// it gates are marked on their instructions (Program.Gated): every
// optimizer but those of a splice's frozen prefix, which ran before the
// splice and carry no edges.
type Barrier struct {
	// Off and IDs list each group's contributions in CSR form: stage group
	// g = Shape.StageIndex(iter, stage) is IDs[Off[g]:Off[g+1]], in
	// increasing instruction order.
	Off, IDs []int32
}

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

// fillBarrier lays the barrier's lists out in off — groups+1 offsets, all
// zero — and ids, one entry per contribution, group[i] naming instruction
// i's stage group or -1 for one that contributes nothing. Counts land in
// off[g], an inclusive prefix sum leaves off[g] at g's end, and a reverse
// fill walks each back to g's start.
func fillBarrier(off, ids, group []int32) Barrier {
	for _, g := range group {
		if g >= 0 {
			off[g]++
		}
	}
	for g := 1; g < len(off); g++ {
		off[g] += off[g-1]
	}
	for i := len(group) - 1; i >= 0; i-- {
		if g := group[i]; g >= 0 {
			off[g]--
			ids[off[g]] = int32(i)
		}
	}
	return Barrier{Off: off, IDs: ids}
}

// Op returns instruction id's op, decoded from the dense op index. (The
// index and every extent of the Shape it was built for fit a uint32, whose
// division is the cheaper one.)
func (p *Program) Op(id int) Op {
	in, sh := &p.Instrs[id], &p.Shape
	k, exec, pp := in.op, int(in.exec), uint32(sh.PP)
	if in.typ == Optimizer {
		return Op{Stage: int(k % pp), MB: -1, Home: exec, Type: Optimizer, Exec: exec, Iter: int(k / pp)}
	}
	mb, k := k%uint32(sh.MB), k/uint32(sh.MB)
	home, k := k%uint32(sh.DP), k/uint32(sh.DP)
	return Op{Stage: int(k % pp), MB: int(mb), Home: int(home), Type: in.typ, Exec: exec, Iter: int(k / pp)}
}

// Type returns instruction id's op type.
func (p *Program) Type(id int) OpType { return p.Instrs[id].typ }

// OpIndex locates instruction id in the dense op index — Shape.OpIndex of
// its op, without decoding it: its worker's WorkerIndex, its stage group's
// StageIndex and its triple's TripleIndex (-1 for an optimizer).
func (p *Program) OpIndex(id int) (worker, group, triple int) {
	in, sh := &p.Instrs[id], &p.Shape
	g, triple := in.op, -1
	if in.typ != Optimizer {
		triple, g = int(g), g/uint32(sh.DP*sh.MB)
	}
	return int(in.exec)*sh.PP + int(g%uint32(sh.PP)), int(g), triple
}

// Slot returns instruction id's op slot: Shape.Slot of its op.
func (p *Program) Slot(id int) int {
	in := &p.Instrs[id]
	return p.Shape.Slot(in.typ, int(in.op), int(in.exec))
}

// Deps returns instruction id's explicit dependency edges: its window of the
// Program's edge slab.
func (p *Program) Deps(id int) []Dep {
	hi := uint32(len(p.deps))
	if id+1 < len(p.Instrs) {
		hi = p.Instrs[id+1].depOff
	}
	return p.deps[p.Instrs[id].depOff:hi:hi]
}

// Gated reports whether the barrier gates instruction id.
func (p *Program) Gated(id int) bool { return p.Instrs[id].gated }

// Stream returns the IDs of the instructions w executes, in execution order
// (the schedule's start order for that worker); nil for a worker without
// one.
func (p *Program) Stream(w Worker) []int32 {
	wi := p.Shape.WorkerIndex(w)
	if wi < 0 || wi+1 >= len(p.streamOff) {
		return nil
	}
	lo, hi := p.streamOff[wi], p.streamOff[wi+1]
	return p.streams[lo:hi:hi]
}

// Workers returns every worker with a non-empty stream in (pipeline, stage)
// order.
func (p *Program) Workers() []Worker { return p.workers }

// Producers returns instruction id's incoming edges with the barrier
// spelled out: a gated optimizer's group contributions follow its Deps as
// DepAllReduce edges, in the group's order. Any other instruction's Deps
// come back as they are. A gated optimizer's list is built on each call,
// so this serves recorders and audits, not an executor's inner loop.
func (p *Program) Producers(id int) []Dep {
	deps := p.Deps(id)
	if !p.Gated(id) {
		return deps
	}
	group := p.Barrier.Group(int(p.Instrs[id].op))
	out := make([]Dep, len(deps), len(deps)+len(group))
	copy(out, deps)
	for _, c := range group {
		out = append(out, Dep{From: c, Kind: DepAllReduce})
	}
	return out
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
	return p.Durations.Of(p.Instrs[id].typ)
}

// OpTypes is the number of op types: the stride of a cost table, whose
// entry WorkerIndex·OpTypes + type is one worker's duration of one op type.
const OpTypes = int(Optimizer) + 1

// NewCostTable tabulates fn over every worker of sh and every op type — the
// dense form a Program carries its cost model in.
func NewCostTable(sh Shape, fn CostFunc) []int64 {
	table := make([]int64, sh.DP*sh.PP*OpTypes)
	for w := 0; w < sh.DP*sh.PP; w++ {
		for t := range OpTypes {
			table[w*OpTypes+t] = fn(sh.WorkerAt(w), OpType(t))
		}
	}
	return table
}

// SetCostTable installs the cost model the Program's schedule was solved
// under, tabulated by NewCostTable: what the splice times re-planned work
// with. A table must be empty or hold a positive duration for every worker
// and op type of the shape. The Program keeps the slice, so call it before
// the Program is shared, and never write the table afterwards.
func (p *Program) SetCostTable(table []int64) error {
	if n := p.Shape.DP * p.Shape.PP * OpTypes; len(table) != 0 && len(table) != n {
		return fmt.Errorf("schedule: program: cost table holds %d durations, want 0 or %d", len(table), n)
	}
	for i, d := range table {
		if d <= 0 {
			return fmt.Errorf("schedule: program: %s of %s costs %d, not a positive duration", OpType(i%OpTypes), p.Shape.WorkerAt(i/OpTypes), d)
		}
	}
	p.costs = table
	return nil
}

// CostTable returns the Program's cost table, empty when it carries none.
// The slice is the Program's own: read-only.
func (p *Program) CostTable() []int64 { return p.costs }

// Cost returns the modeled duration of an op of type t on worker w: the cost
// table's entry, or the homogeneous Durations — DurOf's fallback — when the
// Program carries no table.
func (p *Program) Cost(w Worker, t OpType) int64 {
	if len(p.costs) == 0 {
		return p.Durations.Of(t)
	}
	return p.costs[p.Shape.WorkerIndex(w)*OpTypes+int(t)]
}

// ProgramBuilder assembles a Program straight into its slabs — the
// constructor a decoder or a hand-assembled test uses where Compile has no
// schedule to lower. Instructions come in ID order, each followed by its
// edges, then the streams in (pipeline, stage) order, each followed by its
// instruction IDs. Build derives the barrier's lists from the instructions
// and validates the result. The first malformed call latches the error
// Build returns; the calls after it do nothing.
type ProgramBuilder struct {
	p       *Program
	err     error
	next    int  // the lowest WorkerIndex whose stream may still open
	pending bool // a stream is open and holds no instruction yet
}

// NewProgramBuilder starts a Program of instrs instructions with edges
// edges in all, every one of them to be added before Build.
func NewProgramBuilder(sh Shape, d Durations, failed map[Worker]bool, instrs, edges int) ProgramBuilder {
	b := ProgramBuilder{p: &Program{Shape: sh, Durations: d, Failed: failed}}
	if !sh.Indexable(instrs) {
		b.fail("%d instructions cannot cover shape %+v", instrs, sh)
		return b
	}
	if edges < 0 {
		b.fail("%d edges declared", edges)
		return b
	}
	nw := sh.DP * sh.PP
	slab := make([]int32, nw+1+instrs)
	b.p.Instrs = make([]Instr, 0, instrs)
	b.p.deps = make([]Dep, 0, edges)
	b.p.streamOff, b.p.streams = slab[:nw+1:nw+1], slab[nw+1:nw+1]
	b.p.workers = make([]Worker, 0, nw)
	return b
}

func (b *ProgramBuilder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("schedule: program: "+format, args...)
	}
}

// Instr adds the next instruction: its op, its stamped duration (zero for
// none) and whether the barrier gates it. The op must lie in the shape, and
// an optimizer must carry MB -1 and run on its home pipeline.
func (b *ProgramBuilder) Instr(op Op, dur int64, gated bool) {
	p := b.p
	if b.err != nil {
		return
	}
	if len(p.Instrs) == cap(p.Instrs) {
		b.fail("more than the %d declared instructions", cap(p.Instrs))
		return
	}
	sh, k := &p.Shape, -1
	switch {
	case op.Exec < 0 || op.Exec >= sh.DP:
	case op.Type >= F && op.Type < Optimizer:
		k = sh.TripleIndex(op.Iter, op.Stage, op.Home, op.MB)
	case op.Type == Optimizer && op.MB == -1 && op.Home == op.Exec:
		k = sh.StageIndex(op.Iter, op.Stage)
	}
	if k < 0 {
		b.fail("%s (type %d) cannot be indexed in shape %+v", op, op.Type, *sh)
		return
	}
	p.Instrs = append(p.Instrs, Instr{Dur: dur, op: uint32(k), exec: int32(op.Exec), depOff: uint32(len(p.deps)), typ: op.Type, gated: gated})
}

// Dep adds an edge from instruction from into the latest instruction.
func (b *ProgramBuilder) Dep(from int, kind DepKind) {
	p := b.p
	if b.err != nil {
		return
	}
	switch to := len(p.Instrs) - 1; {
	case to < 0:
		b.fail("an edge precedes every instruction")
	case len(p.deps) == cap(p.deps):
		b.fail("more than the %d declared edges", cap(p.deps))
	case from < 0 || from >= cap(p.Instrs):
		b.fail("instruction %d depends on %d outside [0,%d)", to, from, cap(p.Instrs))
	default:
		p.deps = append(p.deps, Dep{From: int32(from), Kind: kind})
	}
}

// closeStreams ends the open stream and starts the stream of every worker
// index up to to at the slab's current end, so a worker skipped over gets
// an empty one.
func (b *ProgramBuilder) closeStreams(to int) {
	if b.pending {
		b.fail("%s is listed without a stream", b.p.workers[len(b.p.workers)-1])
	}
	for ; b.next <= to; b.next++ {
		b.p.streamOff[b.next] = int32(len(b.p.streams))
	}
}

// Stream opens worker w's stream; the IDs Next adds fill it in execution
// order. Workers must come in (pipeline, stage) order, each with a
// non-empty stream.
func (b *ProgramBuilder) Stream(w Worker) {
	p := b.p
	if b.err != nil {
		return
	}
	wi := p.Shape.WorkerIndex(w)
	if wi < b.next {
		b.fail("stream of %s is outside shape %+v or out of (pipeline, stage) order", w, p.Shape)
		return
	}
	b.closeStreams(wi)
	p.workers = append(p.workers, w)
	b.pending = true
}

// Next adds instruction id to the open stream.
func (b *ProgramBuilder) Next(id int) {
	p := b.p
	switch {
	case b.err != nil:
	case len(p.workers) == 0:
		b.fail("instruction %d precedes every stream", id)
	case len(p.streams) == cap(p.streams):
		b.fail("streams hold more than the %d instructions", cap(p.streams))
	case id < 0 || id >= cap(p.Instrs):
		b.fail("stream of %s references instruction %d outside [0,%d)", p.workers[len(p.workers)-1], id, cap(p.Instrs))
	default:
		p.streams = append(p.streams, int32(id))
		b.pending = false
	}
}

// Build checks every declared instruction and edge arrived, derives the
// barrier's lists and returns the validated Program.
func (b *ProgramBuilder) Build() (*Program, error) {
	p := b.p
	if b.err == nil {
		b.closeStreams(len(p.streamOff) - 1)
	}
	if b.err == nil && (len(p.Instrs) != cap(p.Instrs) || len(p.deps) != cap(p.deps)) {
		b.fail("%d of %d declared instructions and %d of %d declared edges arrived", len(p.Instrs), cap(p.Instrs), len(p.deps), cap(p.deps))
	}
	if b.err != nil {
		return nil, b.err
	}
	sc := compilePool.Get().(*compileScratch)
	defer compilePool.Put(sc)
	sc.group = filled(sc.group, len(p.Instrs), -1)
	contribs := 0
	for i := range p.Instrs {
		if contributes(p.Instrs[i].typ) {
			_, g, _ := p.OpIndex(i)
			sc.group[i] = int32(g)
			contribs++
		}
	}
	groups := p.Shape.Iter * p.Shape.PP
	slab := make([]int32, groups+1+contribs)
	p.Barrier = fillBarrier(slab[:groups+1:groups+1], slab[groups+1:], sc.group)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Renumber renumbers p in place, instruction order[k] becoming instruction
// k: the same ops, edges, gates, streams and barrier under new IDs, so p
// keeps every invariant Validate checked without walking it again. order
// must be a permutation of p's instruction IDs, and p must not be shared
// yet: its instructions and edges are permuted through pooled scratch, its
// stream IDs rewritten and its barrier lists refilled, each in its own
// slab, so a warm call allocates nothing.
func (p *Program) Renumber(order []int32) {
	n := len(p.Instrs)
	sc := compilePool.Get().(*compileScratch)
	defer compilePool.Put(sc)
	sc.id = filled(sc.id, n, 0)
	for k, i := range order {
		sc.id[i] = int32(k)
	}
	sc.instrs = append(sc.instrs[:0], p.Instrs...)
	sc.deps = append(sc.deps[:0], p.deps...)
	edges := 0
	for k, i := range order {
		lo, hi := sc.instrs[i].depOff, uint32(len(sc.deps))
		if int(i)+1 < n {
			hi = sc.instrs[i+1].depOff
		}
		p.Instrs[k] = sc.instrs[i]
		p.Instrs[k].depOff = uint32(edges)
		for _, d := range sc.deps[lo:hi] {
			p.deps[edges] = Dep{From: sc.id[d.From], Kind: d.Kind}
			edges++
		}
	}
	for j, i := range p.streams {
		p.streams[j] = sc.id[i]
	}
	// Renumbering moves no weight gradient to another group: label each new
	// ID with its group and refill the lists in their own slab.
	sc.group = filled(sc.group, n, -1)
	for g := 0; g+1 < len(p.Barrier.Off); g++ {
		for _, c := range p.Barrier.Group(g) {
			sc.group[sc.id[c]] = int32(g)
		}
	}
	clear(p.Barrier.Off)
	p.Barrier = fillBarrier(p.Barrier.Off, p.Barrier.IDs, sc.group)
}

// compileScratch is the working set of Compile and Renumber, pooled so that
// they allocate only what the Program keeps.
type compileScratch struct {
	id     []int32 // per op slot: the instruction holding it, -1 for absent; Renumber's new IDs
	cursor []int32 // per worker: stream length, then next free slot
	instrs []Instr // Renumber's copy of the instructions before the permutation
	deps   []Dep   // Renumber's copy of the edge slab before the permutation
	group  []int32 // per instruction: its barrier group, -1 for none
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

// dupName names an op type in a duplicate-op rejection.
var dupName = [...]string{F: "F", B: "backward", BInput: "BInput", BWeight: "BWeight", Optimizer: "optimizer"}

// Compile lowers a schedule into a Program. Every placement becomes one
// instruction; cross-stage activation/gradient edges and same-worker data
// dependencies are made explicit, and every optimizer is gated on its
// stage's all-reduce Barrier. The schedule must be complete (every op of
// every micro-batch placed exactly once); Compile reports schedules it
// cannot lower.
//
// Every instruction is filed under its op slot, and its edges are its
// Shape.AppendInputs looked up there. The Program is four allocations besides
// itself: its instructions, its edges, one int32 slab for the streams and
// the barrier, and its worker list.
func Compile(s *Schedule) (*Program, error) {
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
	groups, nw := sh.Iter*sh.PP, sh.DP*sh.PP
	sc.id = filled(sc.id, sh.Slots(), -1)
	sc.cursor = filled(sc.cursor, nw+1, 0)
	sc.group = filled(sc.group, n, -1)
	id, cursor := sc.id, sc.cursor
	var inputs [2]Input

	// First pass: materialize instructions in the schedule's canonical
	// order, file each under its op slot, and count what the slabs must
	// hold (stream lengths land one slot up, for the prefix sum).
	edges, contribs := 0, 0
	for i := range s.Placements {
		pl := &s.Placements[i]
		op := pl.Op
		w, g, k, ok := sh.OpIndex(op)
		if !ok {
			return nil, fmt.Errorf("schedule: compile: %s lies outside shape %+v", op, sh)
		}
		cursor[w+1]++
		at := k
		if op.Type == Optimizer {
			at = g // its StageIndex: an optimizer waits on the barrier, not edges
		}
		sl := sh.Slot(op.Type, at, op.Exec)
		switch {
		case op.Type < F || op.Type > Optimizer:
			return nil, fmt.Errorf("schedule: compile: %s has unknown type %d", op, op.Type)
		case id[sl] >= 0:
			return nil, fmt.Errorf("schedule: compile: duplicate %s for %s (instr %d and %d)", dupName[op.Type], op, id[sl], i)
		case op.Type == B && id[sl+1] >= 0: // a coupled B fills the BWeight slot too
			return nil, fmt.Errorf("schedule: compile: duplicate weight gradient for %s (instr %d and %d)", op, id[sl+1], i)
		case op.Type == Optimizer && (op.MB != -1 || op.Home != op.Exec):
			return nil, fmt.Errorf("schedule: compile: %s carries MB %d and home %d, not -1 and its executor", op, op.MB, op.Home)
		case op.Type == B:
			id[sl+1] = int32(i)
		}
		id[sl] = int32(i)
		if contributes(op.Type) {
			sc.group[i] = int32(g)
			contribs++
		}
		edges += len(sh.AppendInputs(inputs[:0], op.Type, op.Stage, k))
		p.Instrs[i] = Instr{Dur: pl.End - pl.Start, op: uint32(at), exec: int32(op.Exec), typ: op.Type}
	}

	// One int32 slab: stream offsets, streams, then the barrier's lists.
	slab := make([]int32, nw+1+n+groups+1+contribs)
	p.streamOff, p.streams = slab[:nw+1:nw+1], slab[nw+1:nw+1+n:nw+1+n]
	// Count -> prefix sum -> fill: per-worker streams in instruction order.
	workers := 0
	for w := 0; w < nw; w++ {
		if cursor[w+1] > 0 {
			workers++
		}
		cursor[w+1] += cursor[w]
	}
	copy(p.streamOff, cursor)
	for i := range s.Placements {
		w := sh.WorkerIndex(s.Placements[i].Op.Worker())
		p.streams[cursor[w]] = int32(i)
		cursor[w]++
	}
	p.workers = make([]Worker, 0, workers)
	for w := 0; w < nw; w++ {
		if p.streamOff[w+1] > p.streamOff[w] {
			p.workers = append(p.workers, sh.WorkerAt(w))
		}
	}
	bar := slab[nw+1+n:]
	p.Barrier = fillBarrier(bar[:groups+1:groups+1], bar[groups+1:], sc.group)

	// Second pass: attach the explicit dependency edges and gate the
	// optimizers.
	deps := make([]Dep, 0, edges)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		in.depOff = uint32(len(deps))
		op := &s.Placements[i].Op
		if in.typ == Optimizer {
			// The per-stage gradient all-reduce: every weight gradient of
			// this stage and iteration — including rerouted ones computed on
			// peers — gates every peer's step. A complete schedule carries
			// exactly DP*MB of them; fewer means a weight gradient is
			// missing and the barrier would silently weaken. Validate checks
			// the same count; this names the optimizer where it is found.
			if got, want := len(p.Barrier.Group(int(in.op))), sh.DP*sh.MB; got != want {
				return nil, fmt.Errorf("schedule: compile: %s gates on %d weight gradients, want %d", *op, got, want)
			}
			in.gated = true
			continue
		}
		for _, d := range sh.AppendInputs(inputs[:0], in.typ, op.Stage, int(in.op)) {
			if id[d.Slot] < 0 {
				return nil, fmt.Errorf("schedule: compile: %s has no %s", *op, d)
			}
			deps = append(deps, Dep{From: id[d.Slot], Kind: d.Kind})
		}
	}
	p.deps = deps
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks the Program's structural invariants: every edge points at
// an existing instruction and relates ops the way its kind claims
// (edge consistency), streams partition the instruction set, the barrier
// lists every weight gradient of its group and a gated optimizer's group
// is complete (checkBarrier), and a Walk — the rule every executor runs
// instructions by — runs every instruction (deadlock-freedom: an executor
// that runs streams in order and blocks on edges and barriers can always
// make progress). Streams are checked in WorkerIndex order, so a Program
// with several defects reports the same one on every call.
func (p *Program) Validate() error {
	n, sh := len(p.Instrs), p.Shape
	seen := make([]bool, n)
	for wi := 0; wi+1 < len(p.streamOff); wi++ {
		for _, id := range p.streams[p.streamOff[wi]:p.streamOff[wi+1]] {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("schedule: program: stream of %s references instruction %d outside [0,%d)", sh.WorkerAt(wi), id, n)
			}
			if seen[id] {
				return fmt.Errorf("schedule: program: instruction %d appears in two streams", id)
			}
			seen[id] = true
			if w, _, _ := p.OpIndex(int(id)); w != wi {
				return fmt.Errorf("schedule: program: instruction %d (%s) filed under worker %s", id, p.Op(int(id)), sh.WorkerAt(wi))
			}
		}
	}
	for i := range seen {
		if !seen[i] {
			return fmt.Errorf("schedule: program: instruction %d (%s) is in no stream", i, p.Op(i))
		}
	}
	for i := range p.Instrs {
		for _, d := range p.Deps(i) {
			if d.From < 0 || int(d.From) >= n {
				return fmt.Errorf("schedule: program: instruction %d depends on %d outside [0,%d)", i, d.From, n)
			}
			if err := p.checkEdge(int(d.From), i, d.Kind); err != nil {
				return fmt.Errorf("schedule: program: edge %d->%d: %w", d.From, i, err)
			}
		}
	}
	if err := p.checkBarrier(); err != nil {
		return err
	}
	return p.checkRuns()
}

// checkBarrier verifies the all-reduce barrier: each group lists, strictly
// increasing, B or BWeight instructions of that group; together the lists
// hold every weight gradient of the Program; only optimizers are gated,
// and a gated optimizer's group lists exactly DP·MB entries — one per
// micro-batch of every pipeline. A Program without contribution lists may
// gate nothing.
func (p *Program) checkBarrier() error {
	b, n, sh := &p.Barrier, len(p.Instrs), p.Shape
	if len(b.Off) == 0 {
		for i := range p.Instrs {
			if p.Instrs[i].gated {
				return fmt.Errorf("schedule: program: barrier gates %s but lists no weight gradients", p.Op(i))
			}
		}
		if len(b.IDs) > 0 {
			return fmt.Errorf("schedule: program: barrier lists %d weight gradients without groups", len(b.IDs))
		}
		return nil
	}
	if len(b.Off) != sh.Iter*sh.PP+1 {
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
			if _, cg, _ := p.OpIndex(int(c)); !contributes(p.Instrs[c].typ) || cg != g {
				return fmt.Errorf("schedule: program: barrier group %d lists %s, not one of its weight gradients", g, p.Op(int(c)))
			}
			prev = c
		}
	}
	contribs := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if contributes(in.typ) {
			contribs++
		}
		if !in.gated {
			continue
		}
		if in.typ != Optimizer {
			return fmt.Errorf("schedule: program: barrier gates %s, which is not an optimizer", p.Op(i))
		}
		if got, want := len(b.Group(int(in.op))), sh.DP*sh.MB; got != want {
			return fmt.Errorf("schedule: program: %s gates on %d weight gradients, want %d", p.Op(i), got, want)
		}
	}
	if contribs != len(b.IDs) {
		return fmt.Errorf("schedule: program: barrier lists %d of the %d weight gradients", len(b.IDs), contribs)
	}
	return nil
}

// checkEdge verifies that the edge from → to relates the ops its kind
// claims. It compares positions in the dense op index: one micro-batch's
// triples on adjacent stages lie one stage stride (DP·MB) apart, so an
// activation edge spans one stride upward and a gradient edge one downward,
// neither wrapping into another iteration's stage 0.
func (p *Program) checkEdge(from, to int, k DepKind) error {
	f, t := &p.Instrs[from], &p.Instrs[to]
	stride := uint32(p.Shape.DP * p.Shape.MB)
	stage := func(id int) int { _, g, _ := p.OpIndex(id); return g % p.Shape.PP }
	backward := func(in *Instr) bool { return in.typ == B || in.typ == BInput }
	var ok bool
	var rule string
	switch k {
	case DepActivation:
		ok = f.typ == F && t.typ == F && f.op+stride == t.op && stage(to) > 0
		rule = "activation edge must link F(i-1) to F(i) of one micro-batch"
	case DepGradient:
		ok = backward(f) && backward(t) && t.op+stride == f.op && stage(from) > 0
		rule = "gradient edge must link backward(i+1) to backward(i) of one micro-batch"
	case DepLocal:
		ok = (f.typ == Optimizer) == (t.typ == Optimizer) && f.op == t.op && f.exec == t.exec
		rule = "local edge must stay on one worker and micro-batch"
	case DepAllReduce:
		_, g, _ := p.OpIndex(from)
		ok = contributes(f.typ) && t.typ == Optimizer && g == int(t.op)
		rule = "all-reduce edge must link a weight gradient to its stage optimizer"
	default:
		return fmt.Errorf("unknown edge kind %v", k)
	}
	if !ok {
		return fmt.Errorf("%s: %s -> %s", rule, p.Op(from), p.Op(to))
	}
	return nil
}

// OpCount returns the number of instructions of the given type (t < 0
// counts all).
func (p *Program) OpCount(t OpType) int {
	n := 0
	for i := range p.Instrs {
		if t < 0 || p.Instrs[i].typ == t {
			n++
		}
	}
	return n
}
