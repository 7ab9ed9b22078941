package replay

import (
	"fmt"
	"slices"
	"sync"

	"recycle/internal/schedule"
)

// SpliceInput describes one mid-iteration membership event against an
// in-flight Program execution.
type SpliceInput struct {
	// Prog is the Program that was executing when the event arrived.
	Prog *schedule.Program
	// Starts and Ends are the executed spans at the event instant, indexed
	// by instruction ID, -1 for instructions that have not run — the
	// Execution arrays of a CutAt run of sim.ExecuteProgram, which are the
	// live runtime's executed timeline too.
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
	// Program is the spliced executable: frozen prefix first, re-planned
	// suffix after, compiled and validated deadlock-free/edge-consistent.
	Program *schedule.Program
	// Schedule is the timed schedule the Program was compiled from; it
	// passes schedule.Validate under the input cost function.
	Schedule *schedule.Schedule
	// Done maps the Program's prefix instruction IDs to their recorded
	// completion times — hand it to sim.ExecuteProgram (the live runtime
	// skips it in every stream) so resumption never re-executes completed
	// work.
	Done map[int]int64
	// Floors is the per-worker release floor the re-plan honored; pass it
	// as ReleaseAt when re-executing so the resumed timeline reproduces
	// the spliced schedule's.
	Floors map[schedule.Worker]int64
	// Failed is the post-event failed-worker set the suffix was planned
	// against.
	Failed map[schedule.Worker]bool
	// EndSlot is the spliced iteration's completion time (latest placement
	// end, optimizer included) on the program clock.
	EndSlot int64
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
	// through such a cut; LiveSplice cannot (see there).
	splitStage int
}

// node is one op of the spliced iteration. Nodes live in one slab indexed by
// the input program's instruction ID; optimizer steps added for re-joining
// workers follow at n, n+1, … — so slab order is the ordering key of
// re-planned work.
type node struct {
	op         schedule.Op
	start, end int64
	oldExec    int32 // executor the in-flight program assigned
	group      int32 // stage group (iter·PP + stage) in the dense op index
	triple     int32 // triple in the dense op index; -1 for an optimizer
	kind       nodeKind
	placed     bool
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
	pending            []int32 // weight-gradient contributions not yet placed
	maxEnd             []int64 // latest end among the placed ones

	// Per worker.
	failing, down []bool  // dying at the cut; failed after the event
	loads, free   []int64 // routing load; earliest next start
	pos           []int32 // timing sweep: next unplaced stream position

	// Per triple.
	pin       []int32 // live executor holding the triple's state, or -1
	tripleOff []int32 // CSR offsets into tripleNodes

	bySlot []int32 // per op slot: the node holding it, -1 for none

	tripleNodes []int32 // suffix compute nodes grouped by triple
	streamOff   []int32 // CSR offsets into streamNodes, per (worker, iter, optimizer-last)
	streamNodes []int32 // suffix nodes grouped into per-worker streams
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
		if sc.failing[p.Shape.WorkerIndex(nd.op.Worker())] {
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

// contributes reports whether an op of type t feeds its stage's gradient
// all-reduce.
func contributes(t schedule.OpType) bool { return t == schedule.B || t == schedule.BWeight }

// Splice splits the in-flight program into its executed prefix and
// unexecuted suffix, re-plans only the suffix against the post-event
// worker set, and returns the validated spliced artifact. See the package
// comment for the invariants it maintains.
func Splice(in SpliceInput) (*Spliced, error) {
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
	defer splicePool.Put(sc)
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
	// its schedule was solved with, so frozen prefix spans and re-planned
	// spans validate under one duration rule.
	dur := p.Cost

	// Locate every instruction in the dense op index. Stepped (iter, stage)
	// groups — every optimizer instruction of the group completed before the
	// cut — are durable: the cascade neither seeds from nor propagates into
	// them.
	// The slab has room for the optimizer steps re-joiners may add.
	sc.nodes = filled(sc.nodes, n+len(in.Rejoin)*sh.Iter, node{})
	sc.optTotal = filled(sc.optTotal, groups, 0)
	sc.optFired = filled(sc.optFired, groups, 0)
	sc.bySlot = filled(sc.bySlot, sh.Slots(), -1)
	nodes, optTotal, optFired, bySlot := sc.nodes[:n], sc.optTotal, sc.optFired, sc.bySlot
	for _, c := range p.Barrier.IDs {
		if c < 0 || int(c) >= n {
			return nil, fmt.Errorf("replay: the barrier lists instruction %d outside [0,%d)", c, n)
		}
	}
	for i := range p.Instrs {
		op := p.Op(i)
		_, g, k := p.OpIndex(i)
		for _, d := range p.Deps(i) {
			if d.From < 0 || int(d.From) >= n {
				return nil, fmt.Errorf("replay: instruction %d depends on %d outside [0,%d)", i, d.From, n)
			}
		}
		nodes[i] = node{op: op, oldExec: int32(op.Exec), group: int32(g), triple: int32(k)}
		bySlot[p.Slot(i)] = int32(i)
		if op.Type == schedule.Optimizer {
			optTotal[g]++
			if in.Ends[i] >= 0 {
				optFired[g]++
			}
		}
	}

	out := &Spliced{
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
	// seed the routing loads, the worker clocks and the all-reduce
	// readiness, and pin their triple to the peer holding its state.
	sc.state = filled(sc.state, n, unvisited)
	sc.optDone = filled(sc.optDone, groups, false)
	sc.pending = filled(sc.pending, groups, 0)
	sc.maxEnd = filled(sc.maxEnd, groups, 0)
	sc.loads = filled(sc.loads, nw, 0)
	sc.free = filled(sc.free, nw, 0)
	sc.pin = filled(sc.pin, triples, -1)
	sc.tripleOff = filled(sc.tripleOff, triples+1, 0)
	optDone, pending, maxEnd, loads, free := sc.optDone, sc.pending, sc.maxEnd, sc.loads, sc.free
	pin, tripleOff := sc.pin, sc.tripleOff
	for i := range nodes {
		nd := &nodes[i]
		op, g, k := nd.op, nd.group, nd.triple
		if in.Ends[i] >= 0 && !sc.isLost(p, in.Ends, i) {
			nd.kind, nd.placed = prefix, true
			nd.start, nd.end = in.Starts[i], in.Ends[i]
			out.PrefixOps++
			w := sh.WorkerIndex(op.Worker())
			if over := nd.end - in.Cut; over > loads[w] {
				loads[w] = over // in-flight work that ran past the event instant
			}
			free[w] = max(free[w], nd.end)
			if op.Type == schedule.Optimizer {
				optDone[g] = true
			} else {
				pin[k] = int32(op.Exec)
				if contributes(op.Type) {
					maxEnd[g] = max(maxEnd[g], nd.end)
				}
			}
			continue
		}
		if in.Ends[i] >= 0 { // completed but lost: re-execute
			out.LostIDs = append(out.LostIDs, i)
			out.LostOps++
			out.LostSlots += in.Ends[i] - in.Starts[i]
		}
		if op.Type == schedule.Optimizer {
			if !failing[sh.WorkerIndex(op.Worker())] { // a dead worker does not step
				nd.kind = suffix
				out.SuffixOps++
			}
			continue
		}
		nd.kind = suffix
		out.SuffixOps++
		tripleOff[k+1]++
		if contributes(op.Type) {
			pending[g]++
		}
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
			op := schedule.Op{Stage: w.Stage, MB: -1, Home: w.Pipeline, Exec: w.Pipeline, Type: schedule.Optimizer, Iter: it}
			bySlot[sh.Slot(schedule.Optimizer, g, op.Exec)] = int32(len(nodes))
			nodes = append(nodes, node{op: op, oldExec: int32(w.Pipeline), group: int32(g), triple: -1, kind: suffix})
			out.SuffixOps++
		}
	}

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
		first := nodes[group[0]].op
		stage, home := first.Stage, first.Home
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
		for _, i := range group {
			nd := &nodes[i]
			nd.op.Exec = exec
			loads[exec*sh.PP+stage] += dur(nd.op.Worker(), nd.op.Type)
			if int32(exec) != nd.oldExec {
				out.ReroutedOps++
				migrated = true
			}
		}
		if migrated {
			out.MigratedTriples++
		}
	}

	// Per-worker suffix streams, ordered by (iteration, optimizer-last,
	// original instruction ID): a projection of one global topological
	// order of the dependency DAG, so executing streams in order can never
	// deadlock, and the staggered-optimizer per-worker ordering (step
	// before any next-iteration op) holds by construction. Nodes are
	// already in instruction-ID order, so bucketing them by (worker,
	// iteration, optimizer-last) is the whole sort.
	bucket := func(nd *node) int {
		b := (sh.WorkerIndex(nd.op.Worker())*sh.Iter + nd.op.Iter) * 2
		if nd.op.Type == schedule.Optimizer {
			b++
		}
		return b
	}
	perWorker := 2 * sh.Iter
	sc.streamOff = filled(sc.streamOff, nw*perWorker+1, 0)
	sc.streamNodes = filled(sc.streamNodes, out.SuffixOps, 0)
	streamOff, streamNodes := sc.streamOff, sc.streamNodes
	for i := range nodes {
		if nd := &nodes[i]; nd.kind == suffix {
			streamOff[bucket(nd)+1]++
		}
	}
	for b := 0; b < nw*perWorker; b++ {
		streamOff[b+1] += streamOff[b]
	}
	for i := range nodes {
		if nd := &nodes[i]; nd.kind == suffix {
			b := bucket(nd)
			streamNodes[streamOff[b]] = int32(i)
			streamOff[b]++
		}
	}
	// The fill left streamOff[b] at the end of bucket b, so worker w's
	// stream ends at streamOff[(w+1)·perWorker-1] and starts where w-1's ends.
	stream := func(w int) []int32 {
		lo := int32(0)
		if w > 0 {
			lo = streamOff[w*perWorker-1]
		}
		return streamNodes[lo:streamOff[(w+1)*perWorker-1]]
	}
	for w := 0; w < nw; w++ {
		if len(stream(w)) == 0 {
			continue
		}
		floor := in.Cut
		if r, ok := in.Release[sh.WorkerAt(w)]; ok && r > floor {
			floor = r
		}
		out.Floors[sh.WorkerAt(w)] = floor
		free[w] = max(free[w], floor)
	}

	// Fixed-point timing sweep — the executors' own recurrence, start =
	// max(worker free, dependency ends + comm), applied to the suffix with
	// the prefix frozen. A compute node waits on its Shape.AppendInputs,
	// looked up by op slot; an optimizer waits for its group's contribution counter to
	// drain and starts no earlier than the contributions' running latest
	// end. Workers are walked in index order, so a malformed program yields
	// the same error on every call.
	sc.pos = filled(sc.pos, nw, 0)
	pos := sc.pos
	var inputs [2]schedule.Input
	for remaining := out.SuffixOps; remaining > 0; {
		progressed := false
		for w := 0; w < nw; w++ {
			s := stream(w)
			for int(pos[w]) < len(s) {
				nd := &nodes[s[pos[w]]]
				ready, ok := maxEnd[nd.group], pending[nd.group] == 0
				if nd.op.Type != schedule.Optimizer {
					ready, ok = 0, true
					for _, d := range sh.AppendInputs(inputs[:0], nd.op.Type, nd.op.Stage, int(nd.triple)) {
						if bySlot[d.Slot] < 0 {
							return nil, fmt.Errorf("replay: %s has no %s", nd.op, d)
						}
						if pr := &nodes[bySlot[d.Slot]]; !pr.placed {
							ok = false
						} else {
							ready = max(ready, pr.end+p.Durations.EdgeLatency(d.Kind))
						}
					}
				}
				if !ok {
					break
				}
				nd.start = max(free[w], ready)
				nd.end = nd.start + dur(sh.WorkerAt(w), nd.op.Type)
				nd.placed = true
				if contributes(nd.op.Type) {
					pending[nd.group]--
					maxEnd[nd.group] = max(maxEnd[nd.group], nd.end)
				}
				free[w] = nd.end
				pos[w]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("replay: suffix re-plan deadlocked with %d ops unplaced", remaining)
		}
	}

	// Assemble the spliced schedule and compile it — Compile re-validates
	// completeness, edge consistency and deadlock-freedom.
	placements := make([]schedule.Placement, 0, out.PrefixOps+out.SuffixOps)
	for _, kind := range [...]nodeKind{prefix, suffix} {
		for i := range nodes {
			if nd := &nodes[i]; nd.kind == kind {
				placements = append(placements, schedule.Placement{Op: nd.op, Start: nd.start, End: nd.end})
				out.EndSlot = max(out.EndSlot, nd.end)
			}
		}
	}
	out.Schedule = schedule.New(sh, p.Durations, newFailed, placements)
	// The prefix may keep a durable consumer whose producer is re-placed
	// after the cut; CompileFrozen drops the dead edges into the frozen
	// prefix so that historical back-edge cannot close a spurious cycle with
	// same-worker stream order.
	prog, err := schedule.CompileFrozen(out.Schedule, in.Cut)
	if err != nil {
		return nil, fmt.Errorf("replay: spliced schedule does not compile: %w", err)
	}
	if err := prog.SetCostTable(p.CostTable()); err != nil {
		return nil, err
	}
	out.Program = prog
	// Done: the spliced Program's instructions whose op is a prefix node
	// (Compile accepted the schedule, so every op is one node's).
	out.Done = make(map[int]int64, out.PrefixOps)
	for i := range prog.Instrs {
		if nd := &nodes[bySlot[prog.Slot(i)]]; nd.kind == prefix {
			out.Done[i] = nd.end
		}
	}
	// Durable victim work stays frozen in the prefix on its (now failed)
	// worker; admit exactly those placements and nothing later.
	if err := schedule.Validate(out.Schedule, schedule.ValidateConfig{Costs: p.Cost, FrozenBefore: in.Cut}); err != nil {
		return nil, fmt.Errorf("replay: spliced schedule fails validation: %w", err)
	}
	return out, nil
}
