package schedule

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// opKey identifies a compute op independently of where it executes.
type opKey struct {
	iter, stage, mb, home int
}

// refInstr and refProgram are the pointer-graph Program layout the
// references build and read: an ID, the op and an edge list per
// instruction — a gated optimizer's all-reduce spelled out as DepAllReduce
// edges — and the streams in a map.
type refInstr struct {
	ID   int
	Op   Op
	Deps []Dep
	Dur  int64
}

type refProgram struct {
	Instrs  []refInstr
	Streams map[Worker][]int
	workers []Worker
}

// compileRef is the map-keyed Compile this package shipped before the dense
// op index, kept verbatim as a differential oracle.
func compileRef(s *Schedule) (*refProgram, error) {
	if s == nil {
		return nil, fmt.Errorf("schedule: cannot compile a nil schedule")
	}
	if err := s.Shape.Validate(); err != nil {
		return nil, err
	}
	p := &refProgram{
		Instrs:  make([]refInstr, len(s.Placements)),
		Streams: make(map[Worker][]int),
	}
	// First pass: materialize instructions in the schedule's canonical
	// order and index the producers of every data dependency.
	fID := make(map[opKey]int)
	biID := make(map[opKey]int)         // BInput, or coupled B
	bwID := make(map[opKey]int)         // BWeight, or coupled B
	optAt := make(map[[3]int]int)       // (iter, stage, exec) -> Optimizer id
	bwByStage := make(map[[2]int][]int) // (iter, stage) -> BWeight/B ids
	for i, pl := range s.Placements {
		p.Instrs[i] = refInstr{ID: i, Op: pl.Op, Dur: pl.End - pl.Start}
		w := pl.Op.Worker()
		p.Streams[w] = append(p.Streams[w], i)
		k := opKey{pl.Op.Iter, pl.Op.Stage, pl.Op.MB, pl.Op.Home}
		switch pl.Op.Type {
		case F:
			if prev, dup := fID[k]; dup {
				return nil, fmt.Errorf("schedule: compile: duplicate F for %s (instr %d and %d)", pl.Op, prev, i)
			}
			fID[k] = i
		case B:
			if prev, dup := biID[k]; dup {
				return nil, fmt.Errorf("schedule: compile: duplicate backward for %s (instr %d and %d)", pl.Op, prev, i)
			}
			if prev, dup := bwID[k]; dup {
				return nil, fmt.Errorf("schedule: compile: duplicate weight gradient for %s (instr %d and %d)", pl.Op, prev, i)
			}
			biID[k] = i
			bwID[k] = i
			bwByStage[[2]int{pl.Op.Iter, pl.Op.Stage}] = append(bwByStage[[2]int{pl.Op.Iter, pl.Op.Stage}], i)
		case BInput:
			if prev, dup := biID[k]; dup {
				return nil, fmt.Errorf("schedule: compile: duplicate BInput for %s (instr %d and %d)", pl.Op, prev, i)
			}
			biID[k] = i
		case BWeight:
			if prev, dup := bwID[k]; dup {
				return nil, fmt.Errorf("schedule: compile: duplicate BWeight for %s (instr %d and %d)", pl.Op, prev, i)
			}
			bwID[k] = i
			bwByStage[[2]int{pl.Op.Iter, pl.Op.Stage}] = append(bwByStage[[2]int{pl.Op.Iter, pl.Op.Stage}], i)
		case Optimizer:
			ko := [3]int{pl.Op.Iter, pl.Op.Stage, pl.Op.Exec}
			if prev, dup := optAt[ko]; dup {
				return nil, fmt.Errorf("schedule: compile: duplicate optimizer for %s (instr %d and %d)", pl.Op, prev, i)
			}
			optAt[ko] = i
		}
	}
	// Second pass: attach the explicit dependency edges.
	for i := range p.Instrs {
		op := p.Instrs[i].Op
		k := opKey{op.Iter, op.Stage, op.MB, op.Home}
		switch op.Type {
		case F:
			if op.Stage > 0 {
				up, ok := fID[opKey{op.Iter, op.Stage - 1, op.MB, op.Home}]
				if !ok {
					return nil, fmt.Errorf("schedule: compile: %s has no upstream forward", op)
				}
				p.Instrs[i].Deps = append(p.Instrs[i].Deps, Dep{From: int32(up), Kind: DepActivation})
			}
		case B, BInput:
			f, ok := fID[k]
			if !ok {
				return nil, fmt.Errorf("schedule: compile: %s has no forward", op)
			}
			p.Instrs[i].Deps = append(p.Instrs[i].Deps, Dep{From: int32(f), Kind: DepLocal})
			if op.Stage < s.Shape.PP-1 {
				down, ok := biID[opKey{op.Iter, op.Stage + 1, op.MB, op.Home}]
				if !ok {
					return nil, fmt.Errorf("schedule: compile: %s has no downstream backward", op)
				}
				p.Instrs[i].Deps = append(p.Instrs[i].Deps, Dep{From: int32(down), Kind: DepGradient})
			}
		case BWeight:
			bi, ok := biID[k]
			if !ok {
				return nil, fmt.Errorf("schedule: compile: %s has no backward-input", op)
			}
			p.Instrs[i].Deps = append(p.Instrs[i].Deps, Dep{From: int32(bi), Kind: DepLocal})
		case Optimizer:
			// The per-stage gradient all-reduce: every weight gradient of
			// this stage and iteration — including rerouted ones computed on
			// peers — gates every peer's step. A complete schedule carries
			// exactly DP*MB of them; fewer means a weight gradient is
			// missing and the barrier would silently weaken.
			contribs := bwByStage[[2]int{op.Iter, op.Stage}]
			if got, want := len(contribs), s.Shape.DP*s.Shape.MB; got != want {
				return nil, fmt.Errorf("schedule: compile: %s gates on %d weight gradients, want %d", op, got, want)
			}
			for _, bw := range contribs {
				p.Instrs[i].Deps = append(p.Instrs[i].Deps, Dep{From: int32(bw), Kind: DepAllReduce})
			}
		}
	}
	p.workers = sortedWorkers(p.Streams)
	if err := p.validateRef(); err != nil {
		return nil, err
	}
	return p, nil
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

// validateRef is Program.Validate as it read on the pointer-graph layout,
// the all-reduce checked as edges: streams partition the instructions, every
// edge relates the ops its kind claims, and the graph is acyclic.
func (p *refProgram) validateRef() error {
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
			if d.From < 0 || int(d.From) >= n {
				return fmt.Errorf("schedule: program: instruction %d depends on %d outside [0,%d)", i, d.From, n)
			}
			from := p.Instrs[d.From].Op
			if err := checkEdgeRef(from, to, d.Kind); err != nil {
				return fmt.Errorf("schedule: program: edge %d->%d: %w", d.From, i, err)
			}
		}
	}
	return p.checkAcyclicRef()
}

// checkEdgeRef is the op-comparing edge check the dense-index checkEdge
// replaced.
func checkEdgeRef(from, to Op, k DepKind) error {
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

// checkAcyclicRef is a successor-list Kahn's algorithm over edges and stream
// order: the oracle of the walk's deadlock verdict (Program.checkRuns).
func (p *refProgram) checkAcyclicRef() error {
	n := len(p.Instrs)
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i := range p.Instrs {
		for _, d := range p.Instrs[i].Deps {
			succs[d.From] = append(succs[d.From], i)
			indeg[i]++
		}
	}
	for _, stream := range p.Streams {
		for j := 1; j < len(stream); j++ {
			succs[stream[j-1]] = append(succs[stream[j-1]], stream[j])
			indeg[stream[j]]++
		}
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, s := range succs[i] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if done != n {
		return fmt.Errorf("schedule: program deadlocks: %d of %d instructions are on a dependency cycle", n-done, n)
	}
	return nil
}

// validateRef is the map-keyed Validate this package shipped before the
// dense op index, kept verbatim as a differential oracle.
func validateRef(s *Schedule, cfg ValidateConfig) error {
	if err := s.Shape.Validate(); err != nil {
		return err
	}
	type key struct {
		iter, i, j, k int
	}
	fAt := make(map[key]Placement)
	bInAt := make(map[key]Placement) // BInput or coupled B
	bWAt := make(map[key]Placement)  // BWeight or coupled B
	optAt := make(map[Worker][]Placement)

	for _, p := range s.Placements {
		if s.Failed[p.Op.Worker()] {
			return fmt.Errorf("schedule: op %s placed on failed worker", p.Op)
		}
		if got, want := p.End-p.Start, s.Shape.CostOf(cfg.Costs, s.Durations, p.Op.Worker(), p.Op.Type); got != want {
			return fmt.Errorf("schedule: op %s has duration %d, want %d", p.Op, got, want)
		}
		if p.Op.Type == Optimizer {
			optAt[p.Op.Worker()] = append(optAt[p.Op.Worker()], p)
			continue
		}
		kk := key{p.Op.Iter, p.Op.Stage, p.Op.MB, p.Op.Home}
		switch p.Op.Type {
		case F:
			if _, dup := fAt[kk]; dup {
				return fmt.Errorf("schedule: duplicate F for %s", p.Op)
			}
			fAt[kk] = p
		case B:
			if _, dup := bInAt[kk]; dup {
				return fmt.Errorf("schedule: duplicate backward for %s", p.Op)
			}
			bInAt[kk] = p
			bWAt[kk] = p
		case BInput:
			if _, dup := bInAt[kk]; dup {
				return fmt.Errorf("schedule: duplicate BInput for %s", p.Op)
			}
			bInAt[kk] = p
		case BWeight:
			if _, dup := bWAt[kk]; dup {
				return fmt.Errorf("schedule: duplicate BWeight for %s", p.Op)
			}
			bWAt[kk] = p
		}
	}

	// Completeness + dependency checks.
	for it := 0; it < s.Shape.Iter; it++ {
		for k := 0; k < s.Shape.DP; k++ {
			for j := 0; j < s.Shape.MB; j++ {
				for i := 0; i < s.Shape.PP; i++ {
					kk := key{it, i, j, k}
					f, ok := fAt[kk]
					if !ok {
						return fmt.Errorf("schedule: missing F stage=%d mb=%d pipe=%d iter=%d", i, j, k, it)
					}
					bi, ok := bInAt[kk]
					if !ok {
						return fmt.Errorf("schedule: missing backward-input stage=%d mb=%d pipe=%d iter=%d", i, j, k, it)
					}
					bw, ok := bWAt[kk]
					if !ok {
						return fmt.Errorf("schedule: missing backward-weight stage=%d mb=%d pipe=%d iter=%d", i, j, k, it)
					}
					// Forward and backward of a micro-batch on the same peer.
					if f.Op.Exec != bi.Op.Exec || bi.Op.Exec != bw.Op.Exec {
						return fmt.Errorf("schedule: micro-batch (i=%d j=%d k=%d) split across peers F@%d BI@%d BW@%d", i, j, k, f.Op.Exec, bi.Op.Exec, bw.Op.Exec)
					}
					// Eq. 2: forward cross-stage dependency.
					if i > 0 {
						prev := fAt[key{it, i - 1, j, k}]
						if f.Start < prev.End+s.Durations.Comm {
							return fmt.Errorf("schedule: %s starts at %d before upstream F ends %d (+comm %d)", f.Op, f.Start, prev.End, s.Durations.Comm)
						}
					}
					// Local data dependency: backward needs this stage's stash.
					if bi.Start < f.End {
						return fmt.Errorf("schedule: %s starts at %d before its F ends %d", bi.Op, bi.Start, f.End)
					}
					// Eq. 3: backward cross-stage dependency.
					if i < s.Shape.PP-1 {
						next := bInAt[key{it, i + 1, j, k}]
						if bi.Start < next.End+s.Durations.Comm {
							return fmt.Errorf("schedule: %s starts at %d before downstream BInput ends %d (+comm %d)", bi.Op, bi.Start, next.End, s.Durations.Comm)
						}
					}
					// Eq. 4: BWeight after BInput.
					if bw.Op.Type == BWeight && bw.Start < bi.End {
						return fmt.Errorf("schedule: %s starts at %d before BInput ends %d", bw.Op, bw.Start, bi.End)
					}
				}
			}
		}
	}

	// Eq. 5: no overlap per worker; memory sweep (Eq. 6); optimizer order.
	for _, w := range s.Workers() {
		ps := append([]Placement(nil), s.Worker(w)...)
		sort.Slice(ps, func(a, b int) bool { return ps[a].Start < ps[b].Start })
		var prevEnd int64
		for idx, p := range ps {
			if idx > 0 && p.Start < prevEnd {
				return fmt.Errorf("schedule: worker %s overlap: %s starts %d before previous op ends %d", w, p.Op, p.Start, prevEnd)
			}
			prevEnd = p.End
		}
		if cfg.MemCap > 0 {
			if err := checkMemoryRef(w, ps, cfg.MemCap); err != nil {
				return err
			}
		}
	}

	// The per-stage gradient all-reduce needs every BWeight of that stage
	// — including rerouted ones executed on peers — before any peer of the
	// stage can step its optimizer.
	type stageIter struct{ stage, iter int }
	lastBW := make(map[stageIter]int64)
	for _, p := range s.Placements {
		if p.Op.Type == BWeight || p.Op.Type == B {
			si := stageIter{p.Op.Stage, p.Op.Iter}
			if p.End > lastBW[si] {
				lastBW[si] = p.End
			}
		}
	}
	for w, opts := range optAt {
		for _, o := range opts {
			if last := lastBW[stageIter{w.Stage, o.Op.Iter}]; o.Start < last {
				return fmt.Errorf("schedule: optimizer on %s starts %d before stage %d all-reduce is ready at %d", w, o.Start, w.Stage, last)
			}
		}
	}

	// Optimizer: per worker and iteration, the step must follow every
	// BWeight that stage executes in that iteration, and precede every op
	// of the next iteration on that worker.
	for w, opts := range optAt {
		byIter := map[int]Placement{}
		for _, p := range opts {
			byIter[p.Op.Iter] = p
		}
		for _, p := range s.Worker(w) {
			if p.Op.Type == Optimizer {
				continue
			}
			if o, ok := byIter[p.Op.Iter]; ok {
				if p.Op.Type == BWeight || p.Op.Type == B {
					if p.End > o.Start {
						return fmt.Errorf("schedule: %s ends %d after optimizer starts %d on %s", p.Op, p.End, o.Start, w)
					}
				}
			}
			if o, ok := byIter[p.Op.Iter-1]; ok && p.Start < o.End {
				return fmt.Errorf("schedule: %s starts %d before previous iteration optimizer ends %d on %s", p.Op, p.Start, o.End, w)
			}
		}
	}
	return nil
}

// checkMemoryRef is the time-sorted activation sweep Validate ran before it
// counted on the Program's streams: +1 when a forward starts (its stash
// allocated), -1 when the micro-batch's B or BWeight ends (freed), frees
// first at one instant. It rejects a worker whose count ever exceeds cap.
func checkMemoryRef(w Worker, ps []Placement, cap int) error {
	type ev struct {
		t     int64
		delta int
	}
	evs := make([]ev, 0, len(ps))
	for _, p := range ps {
		switch p.Op.Type {
		case F:
			evs = append(evs, ev{p.Start, +1})
		case B, BWeight:
			evs = append(evs, ev{p.End, -1})
		}
	}
	slices.SortFunc(evs, func(a, b ev) int { return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.delta, b.delta)) })
	held := 0
	for _, e := range evs {
		if held += e.delta; held > cap {
			return fmt.Errorf("schedule: worker %s holds %d in-flight activations at t=%d, cap %d", w, held, e.t, cap)
		}
	}
	return nil
}
