package replay

import (
	"fmt"
	"sort"

	"recycle/internal/schedule"
)

// tripleKey identifies the F/BInput/BWeight group of one micro-batch at
// one stage — the unit that must stay on a single peer (the activation
// stash and weight-gradient store live where the forward ran).
type tripleKey struct {
	iter, stage, mb, home int
}

// refSpliced is the reference's artifact: the Spliced fields it fills, plus
// the timed schedule it lowers and that schedule's latest end.
type refSpliced struct {
	*Spliced
	Schedule *schedule.Schedule
	EndSlot  int64
}

// spliceRef is the map-keyed Splice this package shipped before the dense op
// index, kept verbatim as the differential oracle: TestSpliceMatchesReference
// and FuzzSplice require Splice to reproduce its output up to instruction
// numbering. It times the suffix with its own sweep and lowers and validates
// the timed schedule with the frozen-prefix rules Splice once delegated to
// the schedule package (compileFrozenRef, validateFrozenRef).
func spliceRef(in SpliceInput) (*refSpliced, error) {
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
	failSet := make(map[schedule.Worker]bool, len(in.Fail))
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
		failSet[w] = true
		newFailed[w] = true
	}
	for _, w := range in.Rejoin {
		if !newFailed[w] {
			return nil, fmt.Errorf("replay: re-joining worker %s is not failed", w)
		}
		if failSet[w] {
			return nil, fmt.Errorf("replay: worker %s cannot fail and re-join in one event", w)
		}
		delete(newFailed, w)
	}
	sh := p.Shape
	for s := 0; s < sh.PP; s++ {
		live := 0
		for k := 0; k < sh.DP; k++ {
			if !newFailed[schedule.Worker{Stage: s, Pipeline: k}] {
				live++
			}
		}
		if live == 0 {
			return nil, fmt.Errorf("replay: stage %d has no live worker after the event", s)
		}
	}
	dur := p.Cost

	// Stepped (iter, stage) groups — every optimizer instruction of the
	// group completed before the cut — are durable: the cascade neither
	// seeds from nor propagates into them.
	optTotal, optFired := make(map[[2]int]int), make(map[[2]int]int)
	for i := range p.Instrs {
		op := p.Op(i)
		if op.Type != schedule.Optimizer {
			continue
		}
		k := [2]int{op.Iter, op.Stage}
		optTotal[k]++
		if in.Ends[i] >= 0 {
			optFired[k]++
		}
	}
	durable := func(op schedule.Op) bool {
		k := [2]int{op.Iter, op.Stage}
		return optTotal[k] > 0 && optFired[k] == optTotal[k]
	}

	// Partition: completed instructions keep their spans, minus the lost
	// set — work completed on a dying worker plus every completed
	// dependent of it, found by BFS over the program's dependency edges.
	// (A completed instruction's producers all completed, so the cascade
	// never has to look at unexecuted work.)
	succs := make([][]int, n)
	for i := range p.Instrs {
		for _, d := range p.Deps(i) {
			succs[d.From] = append(succs[d.From], i)
		}
	}
	lost := make([]bool, n)
	var queue []int
	for i := range p.Instrs {
		if in.Ends[i] >= 0 && failSet[p.Op(i).Worker()] && !durable(p.Op(i)) {
			lost[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, j := range succs[i] {
			if in.Ends[j] >= 0 && !lost[j] && !durable(p.Op(j)) {
				lost[j] = true
				queue = append(queue, j)
			}
		}
	}

	out := &refSpliced{Spliced: &Spliced{
		Done:       make(map[int]int64),
		Floors:     make(map[schedule.Worker]int64),
		Failed:     newFailed,
		splitStage: -1,
	}}
	for k, fired := range optFired {
		if fired < optTotal[k] {
			out.splitStage = k[1]
		}
	}
	for i := range lost {
		if lost[i] {
			out.LostIDs = append(out.LostIDs, i)
		}
	}
	type node struct {
		op      schedule.Op
		oldID   int // ordering key for re-planned ops; -1 for added ones
		start   int64
		end     int64
		placed  bool
		oldExec int
	}
	var prefix, suffix []*node
	pin := make(map[tripleKey]int)   // triple -> live executor holding its state
	optDone := make(map[[2]int]bool) // (iter, stage) -> any optimizer completed
	suffixByTriple := make(map[tripleKey][]*node)
	for i := range p.Instrs {
		op := p.Op(i)
		if in.Ends[i] >= 0 && !lost[i] {
			nd := &node{op: op, oldID: i, start: in.Starts[i], end: in.Ends[i], placed: true, oldExec: op.Exec}
			prefix = append(prefix, nd)
			if op.Type == schedule.Optimizer {
				optDone[[2]int{op.Iter, op.Stage}] = true
			} else {
				pin[tripleKey{op.Iter, op.Stage, op.MB, op.Home}] = op.Exec
			}
			continue
		}
		if in.Ends[i] >= 0 { // completed but lost: re-execute
			out.LostOps++
			out.LostSlots += in.Ends[i] - in.Starts[i]
		}
		if op.Type == schedule.Optimizer {
			if failSet[op.Worker()] {
				continue // a dead worker does not step
			}
			suffix = append(suffix, &node{op: op, oldID: i, oldExec: op.Exec})
			continue
		}
		nd := &node{op: op, oldID: i, oldExec: op.Exec}
		suffix = append(suffix, nd)
		k := tripleKey{op.Iter, op.Stage, op.MB, op.Home}
		suffixByTriple[k] = append(suffixByTriple[k], nd)
	}
	// A re-joining worker steps this iteration's optimizer iff its stage's
	// all-reduce has not fired yet: joining later, it copies post-step
	// parameters and idles to the boundary instead.
	maxID := n
	for _, w := range in.Rejoin {
		for it := 0; it < sh.Iter; it++ {
			si := [2]int{it, w.Stage}
			if optTotal[si] > 0 && !optDone[si] {
				op := schedule.Op{Stage: w.Stage, MB: -1, Home: w.Pipeline, Exec: w.Pipeline, Type: schedule.Optimizer, Iter: it}
				suffix = append(suffix, &node{op: op, oldID: maxID, oldExec: w.Pipeline})
				maxID++
			}
		}
	}

	// Route each micro-batch triple with unexecuted work: pinned to the
	// peer already holding its state, otherwise home when live, otherwise
	// (or when home work was lost) the least-loaded live peer of the stage.
	loads := make(map[schedule.Worker]int64)
	for _, nd := range prefix {
		w := nd.op.Worker()
		if over := nd.end - in.Cut; over > loads[w] {
			loads[w] = over // in-flight work that ran past the event instant
		}
	}
	triples := make([]tripleKey, 0, len(suffixByTriple))
	for k := range suffixByTriple {
		triples = append(triples, k)
	}
	sort.Slice(triples, func(a, b int) bool {
		ka, kb := triples[a], triples[b]
		if ka.iter != kb.iter {
			return ka.iter < kb.iter
		}
		if ka.stage != kb.stage {
			return ka.stage < kb.stage
		}
		if ka.home != kb.home {
			return ka.home < kb.home
		}
		return ka.mb < kb.mb
	})
	for _, k := range triples {
		nodes := suffixByTriple[k]
		exec, pinned := pin[k]
		if !pinned {
			home := schedule.Worker{Stage: k.stage, Pipeline: k.home}
			if !newFailed[home] {
				exec = k.home
			} else {
				best, bestLoad := -1, int64(0)
				for kp := 0; kp < sh.DP; kp++ {
					w := schedule.Worker{Stage: k.stage, Pipeline: kp}
					if newFailed[w] {
						continue
					}
					if best < 0 || loads[w] < bestLoad {
						best, bestLoad = kp, loads[w]
					}
				}
				exec = best
			}
		}
		migrated := false
		for _, nd := range nodes {
			nd.op.Exec = exec
			loads[schedule.Worker{Stage: k.stage, Pipeline: exec}] += dur(nd.op.Worker(), nd.op.Type)
			if nd.op.Exec != nd.oldExec {
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
	// before any next-iteration op) holds by construction.
	streams := make(map[schedule.Worker][]*node)
	free := make(map[schedule.Worker]int64)
	for _, nd := range prefix {
		w := nd.op.Worker()
		if nd.end > free[w] {
			free[w] = nd.end
		}
	}
	for _, nd := range suffix {
		w := nd.op.Worker()
		streams[w] = append(streams[w], nd)
		floor := in.Cut
		if r, ok := in.Release[w]; ok && r > floor {
			floor = r
		}
		out.Floors[w] = floor
		if floor > free[w] {
			free[w] = floor
		}
	}
	for w := range streams {
		s := streams[w]
		sort.Slice(s, func(a, b int) bool {
			oa, ob := s[a], s[b]
			if oa.op.Iter != ob.op.Iter {
				return oa.op.Iter < ob.op.Iter
			}
			aOpt, bOpt := oa.op.Type == schedule.Optimizer, ob.op.Type == schedule.Optimizer
			if aOpt != bOpt {
				return bOpt
			}
			return oa.oldID < ob.oldID
		})
	}

	// Producer indices for dependency resolution by op identity.
	fBy := make(map[tripleKey]*node)
	biBy := make(map[tripleKey]*node)
	bwByStage := make(map[[2]int][]*node)
	index := func(nd *node) {
		k := tripleKey{nd.op.Iter, nd.op.Stage, nd.op.MB, nd.op.Home}
		switch nd.op.Type {
		case schedule.F:
			fBy[k] = nd
		case schedule.B:
			biBy[k] = nd
			bwByStage[[2]int{nd.op.Iter, nd.op.Stage}] = append(bwByStage[[2]int{nd.op.Iter, nd.op.Stage}], nd)
		case schedule.BInput:
			biBy[k] = nd
		case schedule.BWeight:
			bwByStage[[2]int{nd.op.Iter, nd.op.Stage}] = append(bwByStage[[2]int{nd.op.Iter, nd.op.Stage}], nd)
		}
	}
	for _, nd := range prefix {
		index(nd)
	}
	for _, nd := range suffix {
		index(nd)
	}
	deps := func(nd *node) ([]*node, []int64, error) {
		op := nd.op
		k := tripleKey{op.Iter, op.Stage, op.MB, op.Home}
		var ps []*node
		var lat []int64
		need := func(p *node, l int64, what string) error {
			if p == nil {
				return fmt.Errorf("replay: %s has no %s", op, what)
			}
			ps = append(ps, p)
			lat = append(lat, l)
			return nil
		}
		comm := p.Durations.Comm
		switch op.Type {
		case schedule.F:
			if op.Stage > 0 {
				if err := need(fBy[tripleKey{op.Iter, op.Stage - 1, op.MB, op.Home}], comm, "upstream forward"); err != nil {
					return nil, nil, err
				}
			}
		case schedule.B, schedule.BInput:
			if err := need(fBy[k], 0, "forward"); err != nil {
				return nil, nil, err
			}
			if op.Stage < sh.PP-1 {
				if err := need(biBy[tripleKey{op.Iter, op.Stage + 1, op.MB, op.Home}], comm, "downstream backward"); err != nil {
					return nil, nil, err
				}
			}
		case schedule.BWeight:
			if err := need(biBy[k], 0, "backward-input"); err != nil {
				return nil, nil, err
			}
		case schedule.Optimizer:
			for _, bw := range bwByStage[[2]int{op.Iter, op.Stage}] {
				ps = append(ps, bw)
				lat = append(lat, 0)
			}
		}
		return ps, lat, nil
	}

	// Fixed-point timing sweep — the executors' own recurrence, start =
	// max(worker free, dependency ends + comm), applied to the suffix with
	// the prefix frozen.
	remaining := len(suffix)
	pos := make(map[schedule.Worker]int)
	for remaining > 0 {
		progressed := false
		for w, s := range streams {
			for pos[w] < len(s) {
				nd := s[pos[w]]
				ps, lat, err := deps(nd)
				if err != nil {
					return nil, err
				}
				ready := int64(0)
				ok := true
				for i, pr := range ps {
					if !pr.placed {
						ok = false
						break
					}
					if r := pr.end + lat[i]; r > ready {
						ready = r
					}
				}
				if !ok {
					break
				}
				start := free[w]
				if ready > start {
					start = ready
				}
				nd.start, nd.end = start, start+dur(w, nd.op.Type)
				nd.placed = true
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
	placements := make([]schedule.Placement, 0, len(prefix)+len(suffix))
	prefixEnd := make(map[schedule.Op]int64, len(prefix))
	for _, nd := range prefix {
		placements = append(placements, schedule.Placement{Op: nd.op, Start: nd.start, End: nd.end})
		prefixEnd[nd.op] = nd.end
		if nd.end > out.EndSlot {
			out.EndSlot = nd.end
		}
	}
	for _, nd := range suffix {
		placements = append(placements, schedule.Placement{Op: nd.op, Start: nd.start, End: nd.end})
		if nd.end > out.EndSlot {
			out.EndSlot = nd.end
		}
	}
	out.Schedule = schedule.New(sh, p.Durations, newFailed, placements)
	// The prefix may keep a durable consumer whose producer is re-placed
	// after the cut; compileFrozenRef drops the dead edges into the frozen
	// prefix so that historical back-edge cannot close a spurious cycle with
	// same-worker stream order.
	prog, err := compileFrozenRef(out.Schedule, in.Cut)
	if err != nil {
		return nil, fmt.Errorf("replay: spliced schedule does not compile: %w", err)
	}
	if err := prog.SetCostTable(p.CostTable()); err != nil {
		return nil, err
	}
	out.Program = prog
	for i := range prog.Instrs {
		if end, ok := prefixEnd[prog.Op(i)]; ok {
			out.Done[i] = end
		}
	}
	out.PrefixOps = len(prefix)
	out.SuffixOps = len(suffix)
	// Durable victim work stays frozen in the prefix on its (now failed)
	// worker; admit exactly those placements and nothing later.
	if err := validateFrozenRef(out.Schedule, p.Cost, in.Cut); err != nil {
		return nil, fmt.Errorf("replay: spliced schedule fails validation: %w", err)
	}
	return out, nil
}
