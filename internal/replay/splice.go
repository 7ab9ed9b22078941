package replay

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// SpliceInput describes one mid-iteration membership event against an
// in-flight Program execution.
type SpliceInput struct {
	// Prog is the Program that was executing when the event arrived.
	Prog *schedule.Program
	// Starts and Ends are the executed spans at the event instant, indexed
	// by instruction ID, -1 for instructions that have not run — a Chain's
	// cut, projected off the timeline the live runtime executes too.
	Starts, Ends []int64
	// Cut is the event instant on the program's virtual clock. No
	// re-planned work starts before it.
	Cut int64
	// Fail lists live workers dying at Cut. Their completed compute work
	// (activation stashes, weight-gradient stores) dies with them, so it is
	// re-executed on live peers, together with every completed instruction
	// whose provenance transitively includes the lost work. The exception is
	// durable: an (iter, stage) group whose optimizer step fully completed
	// before the cut was made identical on every live peer by the all-reduce
	// and its outbound payloads sit in the re-send stash, so a victim's
	// completed work there stays frozen in the prefix instead of joining the
	// lost cascade. That is what lets a kill land inside the all-reduce
	// epilogue without double-stepping — the live runtime's step-epoch stamp
	// makes the kept step idempotent.
	Fail []schedule.Worker
	// Rejoin lists failed workers re-joining at Cut: they become routable
	// for still-unexecuted micro-batch triples and, when their stage's
	// all-reduce has not fired yet, receive an optimizer step of their own
	// — resuming participation before the iteration boundary.
	Rejoin []schedule.Worker
	// Release floors a worker's earliest re-planned start time (absolute,
	// on the program clock): detection latency after a failure, the
	// parameter-copy time of a re-joining worker. Workers absent from the
	// map are released at Cut.
	Release map[schedule.Worker]int64
}

// Spliced is a validated resumption artifact: the same iteration's work as
// the input program, re-formed around the new worker set.
type Spliced struct {
	// Program is the spliced executable, numbered in its timeline's order
	// — the order a later splice of the same iteration buckets its suffix
	// by — edge-consistent, and deadlock-free by the walk that timed it.
	Program *schedule.Program
	// Done maps the Program's prefix instruction IDs to their recorded
	// completion times: the kept prefix sim.ProgramOptions.Done installs
	// before a cut walk runs the Program. Only tests and the benchmark
	// read it; the splice and every executor install the prefix from the
	// timeline (Exec) instead.
	Done map[int]int64
	// Floors is the per-worker release floor of the re-planned suffix: no
	// worker with re-planned work starts it earlier.
	Floors map[schedule.Worker]int64
	// Failed is the post-event failed-worker set the suffix was planned
	// against.
	Failed map[schedule.Worker]bool
	// Exec is the resumed timeline: Program timed on schedule.Walk, the rule
	// every executor runs it by, from Done under Floors — the Execution
	// sim.ExecuteProgram returns for it — so Exec.Makespan is the spliced
	// iteration's completion time, optimizer included, on the program clock.
	Exec *sim.Execution
	// LostIDs lists the input-program instruction IDs of the lost cascade
	// — completed work on dying workers plus every completed dependent —
	// in the coordinate system the live runtime's materialized effects are
	// keyed in. Instructions of stepped (iter, stage) groups — optimizer
	// fully applied before the cut — are never in it: the all-reduce made
	// the step durable on every live peer and the group's outbound payloads
	// survive in the re-send stash, so they stay frozen in the prefix.
	LostIDs []int
	// PrefixOps counts instructions kept at their executed times; LostOps
	// and LostSlots measure completed work discarded because its
	// provenance died (the emergent reconfiguration cost); SuffixOps
	// counts re-planned instructions; ReroutedOps counts those that moved
	// to a different worker than the original plan chose.
	PrefixOps, LostOps, SuffixOps, ReroutedOps int
	LostSlots                                  int64
	// MigratedTriples counts whole micro-batch triples whose remaining work
	// moved to a different worker than the in-flight program assigned —
	// the unit of state movement (the activation stash and weight-gradient
	// store travel with the triple), ReCycle's measured analogue of a
	// failure-normalization parameter migration.
	MigratedTriples int
	// splitStage is a stage whose optimizer group the cut split — some of
	// its steps completed, some did not — or -1. The trace replayer splices
	// through such a cut; Chain.AdvanceLive cannot (see there).
	splitStage int
	// sc holds the splice's scratch while the Program is still in run
	// order, until number numbers it or release drops it; nil otherwise.
	sc *spliceScratch
}

// node is one op of the spliced iteration, held by its place in the dense
// op index — its type, triple (or stage group) and executor, as
// schedule.Program.At reads them and schedule.ProgramBuilder.InstrAt takes
// them — so nothing is decoded into a schedule.Op but an error's text.
// Nodes live in one slab indexed by the input program's instruction ID;
// optimizer steps added for re-joining workers follow at n, n+1, … — so
// slab order is the ordering key of re-planned work.
type node struct {
	start, end int64
	group      int32 // stage group (iter·PP + stage) in the dense op index
	triple     int32 // triple in the dense op index; -1 for an optimizer
	stage      int32 // the group's stage and iteration, divided out once
	iter       int32
	exec       int32 // executor in the spliced Program
	oldExec    int32 // executor the in-flight program assigned
	id         int32 // instruction ID in the spliced Program
	typ        schedule.OpType
	kind       nodeKind
}

// worker returns the worker running the node in the spliced Program.
func (nd *node) worker() schedule.Worker {
	return schedule.Worker{Stage: int(nd.stage), Pipeline: int(nd.exec)}
}

// workerIndex returns the WorkerIndex of the node's worker.
func (nd *node) workerIndex(sh schedule.Shape) int { return int(nd.exec)*sh.PP + int(nd.stage) }

// at returns the node's position in the dense op index: its triple, or an
// optimizer's stage group.
func (nd *node) at() int {
	if nd.typ == schedule.Optimizer {
		return int(nd.group)
	}
	return int(nd.triple)
}

// op decodes the node's op, for the text of a rejection.
func (nd *node) op(sh schedule.Shape) schedule.Op {
	op := schedule.Op{Stage: int(nd.stage), MB: -1, Home: int(nd.exec), Type: nd.typ, Exec: int(nd.exec), Iter: int(nd.iter)}
	if nd.typ != schedule.Optimizer {
		op.MB, op.Home = int(nd.triple)%sh.MB, int(nd.triple)/sh.MB%sh.DP
	}
	return op
}

type nodeKind uint8

const (
	// dropped: the optimizer step of a worker dying at the cut.
	dropped nodeKind = iota
	// prefix: completed and kept, frozen at its executed span.
	prefix
	// suffix: unexecuted or lost, re-planned after the cut.
	suffix
)

// Lost-cascade memo states of an instruction.
const (
	unvisited uint8 = iota
	visiting
	kept
	lost
)

// spliceScratch is Splice's working set: every table is a slice indexed by
// the Shape's dense op index (schedule.Shape.TripleIndex / StageIndex /
// WorkerIndex / Slot) or by node, sized per call and reused across the events of a
// Replay or a splice chain through splicePool. Nothing in it outlives the
// call — the Spliced artifact shares no memory with it.
type spliceScratch struct {
	nodes []node
	state []uint8 // per instruction: lost-cascade memo

	// Per stage group.
	optTotal, optFired []int32 // optimizer instructions, and how many completed
	optDone            []bool  // some optimizer of the group is in the prefix

	// Per worker.
	failing, down []bool  // dying at the cut; failed after the event
	loads         []int64 // routing load

	// Per triple.
	pin       []int32 // live executor holding the triple's state, or -1
	tripleOff []int32 // CSR offsets into tripleNodes

	bySlot []int32 // per op slot: the node holding it, -1 for none

	tripleNodes []int32  // suffix compute nodes grouped by triple
	runOff      []int32  // CSR offsets into runs, per (worker, kept-first, iter, optimizer-last)
	runs        []int32  // nodes grouped into per-worker streams
	keys        []uint64 // per position in runs: its packed (start, worker), then the sort's spare half
	order       []int32  // positions in runs, then the sort's spare half: timeline order once sorted

	walk schedule.Walk // times the spliced Program
}

var splicePool = sync.Pool{New: func() any { return new(spliceScratch) }}

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

// durable reports whether stage group g stepped before the cut: it has
// optimizer instructions and every one of them completed.
func (sc *spliceScratch) durable(g int32) bool {
	return sc.optTotal[g] > 0 && sc.optFired[g] == sc.optTotal[g]
}

// isLost reports whether completed instruction i is in the lost cascade:
// it ran on a dying worker, or some producer of it is lost — unless its
// (iter, stage) group is durable. A gated optimizer's producers are its
// group's contributions, walked off the barrier. It walks incoming edges
// and memoises, so the whole cascade costs one visit per edge of completed
// work.
func (sc *spliceScratch) isLost(p *schedule.Program, ends []int64, i int) bool {
	switch sc.state[i] {
	case kept, visiting: // visiting: a cycle, which only a malformed program has
		return false
	case lost:
		return true
	}
	sc.state[i] = visiting
	nd := &sc.nodes[i]
	verdict := kept
	if ends[i] >= 0 && !sc.durable(nd.group) {
		if sc.failing[int(nd.oldExec)*p.Shape.PP+int(nd.stage)] {
			verdict = lost
		} else {
			for _, d := range p.Deps(i) {
				if sc.isLost(p, ends, int(d.From)) {
					verdict = lost
					break
				}
			}
			if verdict == kept && p.Gated(i) {
				for _, c := range p.Barrier.Group(int(nd.group)) {
					if sc.isLost(p, ends, int(c)) {
						verdict = lost
						break
					}
				}
			}
		}
	}
	sc.state[i] = verdict
	return verdict == lost
}

// Splice splits the in-flight program into its executed prefix and
// unexecuted suffix, re-plans only the suffix against the post-event
// worker set, and returns the validated spliced artifact, numbered in its
// timeline's order. See the package comment for the invariants it
// maintains.
func Splice(in SpliceInput) (*Spliced, error) {
	out, err := splice(in)
	if err != nil {
		return nil, err
	}
	out.number()
	return out, nil
}

// splice is Splice up to and including the timed walk, with every check
// Splice makes: it fills Exec and every counter, but leaves the Program in
// run order — each worker's stream a contiguous block, workers in
// WorkerIndex order — with Done unset and the scratch held in out.sc. The
// caller numbers it (number) before anything reads it by instruction ID,
// or releases it.
func splice(in SpliceInput) (out *Spliced, err error) {
	p := in.Prog
	if p == nil {
		return nil, fmt.Errorf("replay: cannot splice a nil program")
	}
	n := len(p.Instrs)
	if len(in.Starts) != n || len(in.Ends) != n {
		return nil, fmt.Errorf("replay: executed spans cover %d/%d instructions, program has %d", len(in.Starts), len(in.Ends), n)
	}
	if in.Cut < 0 {
		return nil, fmt.Errorf("replay: negative cut instant %d", in.Cut)
	}
	sh := p.Shape
	if !sh.Indexable(n) {
		return nil, fmt.Errorf("replay: %d instructions cannot cover shape %+v", n, sh)
	}
	newFailed := make(map[schedule.Worker]bool, len(p.Failed)+len(in.Fail))
	for w := range p.Failed {
		if p.Failed[w] {
			newFailed[w] = true
		}
	}
	for _, w := range in.Fail {
		if newFailed[w] {
			return nil, fmt.Errorf("replay: failing worker %s is already failed", w)
		}
		newFailed[w] = true
	}
	for _, w := range in.Rejoin {
		if !newFailed[w] {
			return nil, fmt.Errorf("replay: re-joining worker %s is not failed", w)
		}
		if slices.Contains(in.Fail, w) {
			return nil, fmt.Errorf("replay: worker %s cannot fail and re-join in one event", w)
		}
		delete(newFailed, w)
	}
	sc := splicePool.Get().(*spliceScratch)
	defer func() {
		if out == nil {
			splicePool.Put(sc)
		}
	}()
	triples, groups, nw := sh.Triples(), sh.Iter*sh.PP, sh.DP*sh.PP
	sc.failing = filled(sc.failing, nw, false)
	sc.down = filled(sc.down, nw, false)
	failing, down := sc.failing, sc.down
	for _, w := range in.Fail {
		if wi := sh.WorkerIndex(w); wi >= 0 {
			failing[wi] = true
		}
	}
	for w := range newFailed {
		if wi := sh.WorkerIndex(w); wi >= 0 {
			down[wi] = true
		}
	}
	for s := 0; s < sh.PP; s++ {
		live := 0
		for k := 0; k < sh.DP; k++ {
			if !down[k*sh.PP+s] {
				live++
			}
		}
		if live == 0 {
			return nil, fmt.Errorf("replay: stage %d has no live worker after the event", s)
		}
	}
	// Re-planned work is timed by the Program's own cost table, the model
	// its schedule was solved with, so kept prefix spans and re-planned
	// spans are checked against one duration rule.
	dur := p.Cost

	// Locate every instruction in the dense op index. Stepped (iter, stage)
	// groups — every optimizer instruction of the group completed before the
	// cut — are durable: the cascade neither seeds from nor propagates into
	// them.
	// The slab has room for the optimizer steps re-joiners may add, appended
	// after the n nodes the loop below writes.
	if need := n + len(in.Rejoin)*sh.Iter; cap(sc.nodes) < need {
		sc.nodes = make([]node, need)
	}
	sc.nodes = sc.nodes[:n]
	sc.optTotal = filled(sc.optTotal, groups, 0)
	sc.optFired = filled(sc.optFired, groups, 0)
	sc.bySlot = filled(sc.bySlot, sh.Slots(), -1)
	nodes, optTotal, optFired, bySlot := sc.nodes, sc.optTotal, sc.optFired, sc.bySlot
	for _, c := range p.Barrier.IDs {
		if c < 0 || int(c) >= n {
			return nil, fmt.Errorf("replay: the barrier lists instruction %d outside [0,%d)", c, n)
		}
	}
	stride, pp := uint32(sh.DP*sh.MB), uint32(sh.PP)
	for i := range p.Instrs {
		t, at, exec := p.At(i)
		for _, d := range p.Deps(i) {
			if d.From < 0 || int(d.From) >= n {
				return nil, fmt.Errorf("replay: instruction %d depends on %d outside [0,%d)", i, d.From, n)
			}
		}
		g, k := uint32(at), int32(-1)
		if t != schedule.Optimizer {
			g, k = g/stride, int32(at)
		}
		nodes[i] = node{group: int32(g), triple: k, stage: int32(g % pp), iter: int32(g / pp), exec: int32(exec), oldExec: int32(exec), typ: t}
		bySlot[sh.Slot(t, at, exec)] = int32(i)
		if t == schedule.Optimizer {
			optTotal[g]++
			if in.Ends[i] >= 0 {
				optFired[g]++
			}
		}
	}

	out = &Spliced{
		Floors:     make(map[schedule.Worker]int64),
		Failed:     newFailed,
		splitStage: -1,
	}
	for g := groups - 1; g >= 0; g-- {
		if optFired[g] > 0 && optFired[g] < optTotal[g] {
			out.splitStage = g % sh.PP
		}
	}

	// Partition: completed instructions keep their spans, minus the lost
	// set — work completed on a dying worker plus every completed
	// dependent of it. (A completed instruction's producers all completed,
	// so the cascade never has to look at unexecuted work.) Prefix nodes
	// seed the routing loads and pin their triple to the peer holding its
	// state.
	sc.state = filled(sc.state, n, unvisited)
	sc.optDone = filled(sc.optDone, groups, false)
	sc.loads = filled(sc.loads, nw, 0)
	sc.pin = filled(sc.pin, triples, -1)
	sc.tripleOff = filled(sc.tripleOff, triples+1, 0)
	optDone, loads := sc.optDone, sc.loads
	pin, tripleOff := sc.pin, sc.tripleOff
	for i := range nodes {
		nd := &nodes[i]
		g, k := nd.group, nd.triple
		if in.Ends[i] >= 0 && !sc.isLost(p, in.Ends, i) {
			nd.kind = prefix
			nd.start, nd.end = in.Starts[i], in.Ends[i]
			out.PrefixOps++
			w := nd.workerIndex(sh)
			if over := nd.end - in.Cut; over > loads[w] {
				loads[w] = over // in-flight work that ran past the event instant
			}
			if nd.typ == schedule.Optimizer {
				optDone[g] = true
			} else {
				pin[k] = nd.exec
			}
			continue
		}
		if in.Ends[i] >= 0 { // completed but lost: re-execute
			out.LostIDs = append(out.LostIDs, i)
			out.LostOps++
			out.LostSlots += in.Ends[i] - in.Starts[i]
		}
		if nd.typ == schedule.Optimizer {
			if !failing[nd.workerIndex(sh)] { // a dead worker does not step
				nd.kind = suffix
				out.SuffixOps++
			}
			continue
		}
		nd.kind = suffix
		out.SuffixOps++
		tripleOff[k+1]++
	}
	// A re-joining worker steps this iteration's optimizer iff its stage's
	// all-reduce has not fired yet: joining later, it copies post-step
	// parameters and idles to the boundary instead.
	for _, w := range in.Rejoin {
		for it := 0; it < sh.Iter; it++ {
			g := sh.StageIndex(it, w.Stage)
			if g < 0 || optTotal[g] == 0 || optDone[g] {
				continue
			}
			if sh.WorkerIndex(w) < 0 {
				return nil, fmt.Errorf("replay: re-joining worker %s lies outside shape %+v", w, sh)
			}
			bySlot[sh.Slot(schedule.Optimizer, g, w.Pipeline)] = int32(len(nodes))
			nodes = append(nodes, node{group: int32(g), triple: -1, stage: int32(w.Stage), iter: int32(it),
				exec: int32(w.Pipeline), oldExec: int32(w.Pipeline), typ: schedule.Optimizer, kind: suffix})
			out.SuffixOps++
		}
	}
	sc.nodes = nodes

	// Route each micro-batch triple with unexecuted work: pinned to the
	// peer already holding its state, otherwise home when live, otherwise
	// (or when home work was lost) the least-loaded live peer of the stage.
	// Triples are visited in index order — (iter, stage, home, mb) — with
	// their nodes grouped by count -> prefix sum -> fill (the fill leaves
	// tripleOff[k] at the end of k's group).
	for k := 0; k < triples; k++ {
		tripleOff[k+1] += tripleOff[k]
	}
	sc.tripleNodes = filled(sc.tripleNodes, int(tripleOff[triples]), 0)
	tripleNodes := sc.tripleNodes
	for i := range nodes[:n] {
		if nd := &nodes[i]; nd.kind == suffix && nd.triple >= 0 {
			tripleNodes[tripleOff[nd.triple]] = int32(i)
			tripleOff[nd.triple]++
		}
	}
	lo := int32(0)
	for k := 0; k < triples; k++ {
		group := tripleNodes[lo:tripleOff[k]]
		lo = tripleOff[k]
		if len(group) == 0 {
			continue
		}
		stage, home := int(nodes[group[0]].stage), k/sh.MB%sh.DP
		exec := int(pin[k])
		if exec < 0 {
			if !down[home*sh.PP+stage] {
				exec = home
			} else {
				bestLoad := int64(0)
				for kp := 0; kp < sh.DP; kp++ {
					w := kp*sh.PP + stage
					if down[w] {
						continue
					}
					if exec < 0 || loads[w] < bestLoad {
						exec, bestLoad = kp, loads[w]
					}
				}
			}
		}
		migrated := false
		w := schedule.Worker{Stage: stage, Pipeline: exec}
		for _, i := range group {
			nd := &nodes[i]
			nd.exec = int32(exec)
			loads[exec*sh.PP+stage] += dur(w, nd.typ)
			if int32(exec) != nd.oldExec {
				out.ReroutedOps++
				migrated = true
			}
		}
		if migrated {
			out.MigratedTriples++
		}
	}

	// Each worker's run — its stream in the spliced Program — is its kept
	// prefix, then its suffix by (iteration, optimizer-last, original
	// instruction ID): a projection of one topological order of the
	// dependency DAG, as a Program is numbered in its timeline's order
	// (Compile's and Splice's alike), so running streams in order cannot
	// deadlock and a re-planned step precedes its worker's next-iteration
	// ops. Nodes are in instruction-ID order, so bucketing them by (worker,
	// kept-first, iteration, optimizer-last) is the whole sort: counts, an
	// inclusive prefix sum, and a reverse fill that leaves runOff[b] at the
	// start of bucket b.
	perWorker := 1 + 2*sh.Iter
	bucket := func(nd *node) int {
		b := nd.workerIndex(sh) * perWorker
		if nd.kind == suffix {
			b += 1 + 2*int(nd.iter)
			if nd.typ == schedule.Optimizer {
				b++
			}
		}
		return b
	}
	sc.runOff = filled(sc.runOff, nw*perWorker+1, 0)
	sc.runs = filled(sc.runs, out.PrefixOps+out.SuffixOps, 0)
	runOff, runs := sc.runOff, sc.runs
	for i := range nodes {
		if nd := &nodes[i]; nd.kind != dropped {
			runOff[bucket(nd)]++
		}
	}
	for b := 1; b <= nw*perWorker; b++ {
		runOff[b] += runOff[b-1]
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		if nd := &nodes[i]; nd.kind != dropped {
			b := bucket(nd)
			runOff[b]--
			runs[runOff[b]] = int32(i)
		}
	}
	for w := 0; w < nw; w++ { // worker w's run is runs[runOff[w·perWorker]:runOff[(w+1)·perWorker]]
		if runOff[(w+1)*perWorker] > runOff[w*perWorker+1] { // a suffix follows the prefix
			out.Floors[sh.WorkerAt(w)] = max(in.Cut, in.Release[sh.WorkerAt(w)])
		}
	}

	// A kept instruction that ended by the cut is frozen: it consumed its
	// inputs before the event, and a producer it read from may be re-placed
	// after the cut, so it waits on nothing — no edges, and no gate on an
	// optimizer. Every other compute op waits on its Shape.AppendInputs,
	// found by op slot, and every other optimizer on its group's barrier.
	frozen := func(nd *node) bool { return nd.kind == prefix && nd.end <= in.Cut }
	waits := func(nd *node) bool { return !frozen(nd) && nd.typ != schedule.Optimizer }
	var inputs [2]schedule.Input
	edges := 0
	for k, i := range runs {
		if nd := &nodes[i]; waits(nd) {
			edges += len(sh.AppendInputs(inputs[:0], nd.typ, int(nd.stage), int(nd.triple)))
		}
		nodes[i].id = int32(k)
	}
	// Emit the spliced Program with runs[k] as instruction k, and time it on
	// the walk every executor runs: the kept prefix installed at its
	// recorded ends, every worker skipped past it and released at its floor.
	b := schedule.NewProgramBuilder(sh, p.Durations, newFailed, len(runs), edges)
	for _, i := range runs {
		nd := &nodes[i]
		d := dur(nd.worker(), nd.typ)
		if nd.kind == prefix {
			d = nd.end - nd.start
		}
		if b.InstrAt(nd.typ, nd.at(), int(nd.exec), d, !frozen(nd) && nd.typ == schedule.Optimizer); !waits(nd) {
			continue
		}
		for _, d := range sh.AppendInputs(inputs[:0], nd.typ, int(nd.stage), int(nd.triple)) {
			if bySlot[d.Slot] < 0 {
				return nil, fmt.Errorf("replay: %s has no %s", nd.op(sh), d)
			}
			b.Dep(int(nodes[bySlot[d.Slot]].id), d.Kind)
		}
	}
	for w := 0; w < nw; w++ {
		if lo, hi := runOff[w*perWorker], runOff[(w+1)*perWorker]; hi > lo {
			b.Stream(sh.WorkerAt(w))
			for k := lo; k < hi; k++ {
				b.Next(int(k))
			}
		}
	}
	prog, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("replay: spliced schedule does not compile: %w", err)
	}
	if err := prog.SetCostTable(p.CostTable()); err != nil {
		return nil, err
	}
	m := len(runs)
	spans := make([]int64, 2*m)
	ex := &sim.Execution{Program: prog, Start: spans[:m:m], End: spans[m:]}
	walk := &sc.walk
	defer walk.Clear()
	walk.Reset(prog, schedule.Timing{Lat: prog.Durations}, ex.Start, ex.End)
	for k, i := range runs {
		if nd := &nodes[i]; nd.kind == prefix {
			walk.Install(k, nd.end)
		}
	}
	placed := 0
	for w := 0; w < nw; w++ {
		placed += walk.Skip(w)
		if r, ok := out.Floors[sh.WorkerAt(w)]; ok {
			walk.Release(w, r)
		}
	}
	if placed != out.PrefixOps {
		return nil, fmt.Errorf("replay: spliced program does not run: done set is not a union of stream prefixes (%d of %d instructions at stream heads)", placed, out.PrefixOps)
	}
	walk.Run()
	if ex.Completed, ex.Makespan = walk.Ended(), walk.Makespan(); ex.Completed != m {
		return nil, fmt.Errorf("replay: spliced program does not run: program deadlocked with %d of %d instructions unexecuted", m-ex.Completed, m)
	}
	// Copy the walk's spans into the suffix nodes, which number keys on. A
	// kept node's span stays in Exec as the walk installed it.
	for k, i := range runs {
		if nd := &nodes[i]; nd.kind == suffix {
			nd.start, nd.end = ex.Start[k], ex.End[k]
		}
	}
	out.Program, out.Exec = prog, ex
	if err := sc.boundary(out, in.Cut, nil); err != nil {
		return nil, sc.boundary(out, in.Cut, sc.timeline(sh))
	}
	out.sc = sc
	return out, nil
}

// boundary checks the prefix/suffix boundary of a spliced Program still in
// run order, visiting its positions in order (nil: run order). Kept spans
// are the caller's: none may run past the cut on a worker that is down
// after the event — a victim keeps only its durable pre-cut work — and
// each must last its Program.Cost. An ungated kept step must follow its group's
// weight gradients, which the splice may have re-executed after it. Every
// span is checked before any step, and the first offender in order is
// reported.
func (sc *spliceScratch) boundary(out *Spliced, cut int64, order []int32) error {
	sh := out.Program.Shape
	nodeAt := func(j int) *node {
		if order != nil {
			j = int(order[j])
		}
		return &sc.nodes[sc.runs[j]]
	}
	for j := range sc.runs {
		if nd := nodeAt(j); nd.kind == prefix {
			switch want := out.Program.Cost(nd.worker(), nd.typ); {
			case sc.down[nd.workerIndex(sh)] && nd.end > cut:
				return fmt.Errorf("replay: spliced schedule fails validation: schedule: op %s placed on failed worker", nd.op(sh))
			case nd.end-nd.start != want:
				return fmt.Errorf("replay: spliced schedule fails validation: schedule: op %s has duration %d, want %d", nd.op(sh), nd.end-nd.start, want)
			}
		}
	}
	for j := range sc.runs {
		if nd := nodeAt(j); nd.kind == prefix && nd.typ == schedule.Optimizer {
			ready := int64(0)
			for _, c := range out.Program.Barrier.Group(int(nd.group)) {
				ready = max(ready, out.Exec.End[c])
			}
			if nd.start < ready {
				return fmt.Errorf("replay: spliced schedule fails validation: schedule: optimizer on %s starts %d before stage %d all-reduce is ready at %d",
					nd.worker(), nd.start, nd.stage, ready)
			}
		}
	}
	return nil
}

// timeline returns the positions of the run-ordered Program in its
// timeline's order — start, then worker — as Compile numbers a schedule's.
// Each position gets its packed (start, worker) key, and a stable LSD radix
// sort of the positions by key, eight bits a pass over the bits the largest
// key holds, is the whole sort. Runs are in start order, so stability keeps
// a worker's equal starts in run order: the order a merge of the runs would
// give.
func (sc *spliceScratch) timeline(sh schedule.Shape) []int32 {
	m := len(sc.runs)
	shift := bits.Len(uint(sh.DP * sh.PP))
	sc.keys = filled(sc.keys, 2*m, 0)
	sc.order = filled(sc.order, 2*m, 0)
	keys, spareKeys := sc.keys[:m:m], sc.keys[m:]
	order, spare := sc.order[:m:m], sc.order[m:]
	var top uint64
	for at, i := range sc.runs {
		nd := &sc.nodes[i]
		start := min(max(nd.start, 0), 1<<(63-shift)-1)
		keys[at], order[at] = uint64(start)<<shift|uint64(nd.workerIndex(sh)), int32(at)
		top |= keys[at]
	}
	var count [256]int32
	for s := 0; s < bits.Len64(top); s += 8 {
		clear(count[:])
		for _, k := range keys {
			count[k>>s&255]++
		}
		sum := int32(0)
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for j, k := range keys {
			d := k >> s & 255
			spareKeys[count[d]], spare[count[d]] = k, order[j]
			count[d]++
		}
		keys, spareKeys, order, spare = spareKeys, keys, spare, order
	}
	return order
}

// number is Splice's second half: it renumbers the Program splice left in
// run order in its timeline's order, the order a later splice of the same
// iteration buckets its suffix by, permutes Exec's spans with it, fills
// Done and gives the scratch back. A numbered Spliced is left as it is.
func (s *Spliced) number() {
	sc := s.sc
	if sc == nil {
		return
	}
	defer s.release()
	order := sc.timeline(s.Program.Shape)
	s.Program.Renumber(order)
	s.Done = make(map[int]int64, s.PrefixOps)
	ex := s.Exec
	for k, at := range order {
		nd := &sc.nodes[sc.runs[at]]
		if ex.Start[k], ex.End[k] = nd.start, nd.end; nd.kind == prefix {
			s.Done[k], ex.Start[k] = nd.end, nd.end-s.Program.DurOf(k) // as the walk installs it
		}
	}
}

// release gives a run-ordered splice's scratch back without numbering it:
// the Program stays in run order, for a caller that reads nothing of it by
// instruction ID.
func (s *Spliced) release() {
	if s.sc != nil {
		splicePool.Put(s.sc)
		s.sc = nil
	}
}
