package schedule

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Pipeline cost-equivalence: two data-parallel pipelines are
// interchangeable when, at every stage, their workers run every op type at
// the same modeled cost. Victim sets that differ only by a permutation of
// pipelines inside such classes produce isomorphic schedules, so a planner
// need only solve one canonical representative per orbit and rename the
// result — the symmetry breaking that collapses the concrete
// failure-configuration space combinatorially.

// PipelineClasses partitions the pipelines of a job into cost-equivalence
// classes under costs, a cost table (NewCostTable): WorkerIndex is
// pipeline-major, so a pipeline's costs are one contiguous row of PP·OpTypes
// entries, and two pipelines share a class when their rows are equal. An
// empty table means homogeneous costs, so every pipeline falls into one
// class. Class members are ascending and classes are ordered by their
// smallest member.
func PipelineClasses(sh Shape, costs []int64) [][]int {
	row := sh.PP * OpTypes
	if len(costs) == 0 {
		row = 0
	}
	var classes [][]int
next:
	for k := 0; k < sh.DP; k++ {
		for ci, class := range classes {
			if j := class[0]; slices.Equal(costs[j*row:(j+1)*row], costs[k*row:(k+1)*row]) {
				classes[ci] = append(class, k)
				continue next
			}
		}
		classes = append(classes, []int{k})
	}
	return classes
}

// CanonicalizeVictims maps a victim set onto the canonical representative
// of its cost-equivalence orbit: within every pipeline class, the
// per-pipeline victim stage-profiles are reassigned to the class's members
// in a fixed order (heaviest profile to the smallest pipeline id). It
// returns the canonical victim set (sorted), the pipeline permutation that
// produced it (perm[old] = new, a full permutation over [0, DP) that moves
// pipelines only within their class), and whether the canonical set
// differs from the original.
func CanonicalizeVictims(sh Shape, costs []int64, victims []Worker) (canon []Worker, perm []int, changed bool) {
	perm = make([]int, sh.DP)
	for k := range perm {
		perm[k] = k
	}
	stagesOf := make([][]int, sh.DP)
	for _, w := range victims {
		stagesOf[w.Pipeline] = append(stagesOf[w.Pipeline], w.Stage)
	}
	for k := range stagesOf {
		sort.Ints(stagesOf[k])
	}
	for _, class := range PipelineClasses(sh, costs) {
		members := slices.Clone(class)
		sort.SliceStable(members, func(a, b int) bool {
			return profileLess(stagesOf[members[a]], stagesOf[members[b]])
		})
		for p, old := range members {
			perm[old] = class[p]
		}
	}
	canon = make([]Worker, len(victims))
	for i, w := range victims {
		canon[i] = Worker{Stage: w.Stage, Pipeline: perm[w.Pipeline]}
	}
	SortWorkers(canon)
	orig := slices.Clone(victims)
	SortWorkers(orig)
	return canon, perm, !slices.Equal(canon, orig)
}

// profileLess orders victim stage-profiles canonically: pipelines that
// lost more workers first, then lexicographically smaller stage lists;
// equal profiles keep their original pipeline order (stable sort), so
// un-victimized pipelines never move.
func profileLess(a, b []int) bool {
	if len(a) != len(b) {
		return len(a) > len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// InvertPerm returns the inverse of a pipeline permutation.
func InvertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for old, nw := range perm {
		inv[nw] = old
	}
	return inv
}

// RenamePipelines applies a pipeline permutation to a schedule: every op's
// home and exec pipeline and every failed worker move to perm[pipeline],
// with all times unchanged. When the permutation moves pipelines only
// within cost-equivalence classes (CanonicalizeVictims' output), the
// renamed schedule is an exact isomorph of the original — every constraint
// Validate checks (dependencies, overlap, memory, per-op durations) is
// preserved because swapped workers run every op at identical cost. s must
// be in the canonical order New leaves it in; the result is too, as if New
// had sorted it (renameOrder).
func RenamePipelines(s *Schedule, perm []int) *Schedule {
	buf := sortKeyPool.Get().(*[]sortKey)
	keys := renameOrder(s, perm, (*buf)[:0])
	ps := make([]Placement, len(keys))
	for k, key := range keys {
		p := s.Placements[key.index]
		p.Op = renameOp(p.Op, perm)
		ps[k] = p
	}
	*buf = keys
	sortKeyPool.Put(buf)
	return &Schedule{Shape: s.Shape, Durations: s.Durations, Failed: renameWorkers(s.Failed, perm), Placements: ps}
}

// renameOp moves op's home and exec pipeline to perm[pipeline].
func renameOp(op Op, perm []int) Op {
	op.Home, op.Exec = perm[op.Home], perm[op.Exec]
	return op
}

// renameWorkers returns the failed workers of set moved to perm[pipeline].
func renameWorkers(set map[Worker]bool, perm []int) map[Worker]bool {
	out := make(map[Worker]bool, len(set))
	for w, v := range set {
		if v {
			out[Worker{Stage: w.Stage, Pipeline: perm[w.Pipeline]}] = true
		}
	}
	return out
}

// renameOrder appends to keys the canonical order of s's placements renamed
// by perm — the order New would sort the renamed placements into — each
// key's index naming the placement of s it holds. s is in canonical order
// and a rename moves no Start, so only runs of equal Start reorder: each is
// sorted by its renamed (exec, stage), packed as New packs it, and only
// ties — zero-length or overlapping placements on one worker — compare the
// renamed op's text, as New does.
func renameOrder(s *Schedule, perm []int, keys []sortKey) []sortKey {
	ps := s.Placements
	for i := range ps {
		op := &ps[i].Op
		keys = append(keys, sortKey{start: ps[i].Start, worker: packWorker(perm[op.Exec], op.Stage), index: int32(i)})
	}
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].start == keys[lo].start {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(a, b sortKey) int {
				if a.worker != b.worker {
					return cmp.Compare(a.worker, b.worker)
				}
				return strings.Compare(renameOp(ps[a.index].Op, perm).String(), renameOp(ps[b.index].Op, perm).String())
			})
		}
		lo = hi
	}
	return keys
}

// RenameProgram returns Compile(RenamePipelines(s, perm)) with p's cost
// table, where p is Compile(s) and perm moves pipelines only within
// cost-equivalence classes — without building the renamed schedule: it
// permutes p's flat IR in O(n). Instructions take the renamed order
// (renameOrder), each with its exec and home moved; edges are remapped to
// the new IDs; streams are refiled by WorkerIndex in ID order and the
// barrier refilled, as Compile files them. The cost table is shared: a
// within-class rename maps every worker onto one with the same costs. It
// runs no walk — like Renumber, a relabelling keeps every invariant Compile
// proved — and carries p's plain timeline over, permuted, unless a worker's
// stream changed its order (zero-length ops on one worker tied at one
// Start), in which case Plain walks on first use. Its scratch is pooled,
// so it allocates only what the result keeps.
func RenameProgram(s *Schedule, p *Program, perm []int) *Program {
	n, sh := len(p.Instrs), p.Shape
	groups, nw := sh.Iter*sh.PP, sh.DP*sh.PP
	buf := sortKeyPool.Get().(*[]sortKey)
	defer sortKeyPool.Put(buf)
	keys := renameOrder(s, perm, (*buf)[:0])
	*buf = keys
	sc := compilePool.Get().(*compileScratch)
	defer compilePool.Put(sc)
	sc.id = filled(sc.id, n, 0)
	for k, key := range keys {
		sc.id[key.index] = int32(k)
	}
	sc.cursor = filled(sc.cursor, nw+1, 0)
	sc.group = filled(sc.group, n, -1)

	q := &Program{Shape: sh, Durations: p.Durations, Failed: renameWorkers(p.Failed, perm), Instrs: make([]Instr, n), costs: p.costs}
	q.deps = make([]Dep, len(p.deps))
	edges, contribs, cursor := 0, 0, sc.cursor
	dm := uint32(sh.DP * sh.MB)
	for k, key := range keys {
		i := int(key.index)
		in := p.Instrs[i]
		in.exec, in.depOff = int32(perm[in.exec]), uint32(edges)
		if in.typ != Optimizer {
			// ((g·DP + home)·MB + mb) with the home renamed.
			g, home, mb := in.op/dm, in.op%dm/uint32(sh.MB), in.op%uint32(sh.MB)
			in.op = (g*uint32(sh.DP)+uint32(perm[home]))*uint32(sh.MB) + mb
		}
		q.Instrs[k] = in
		for _, d := range p.Deps(i) {
			q.deps[edges] = Dep{From: sc.id[d.From], Kind: d.Kind}
			edges++
		}
		w, g, _ := q.OpIndex(k)
		cursor[w+1]++
		if contributes(in.typ) {
			sc.group[k] = int32(g)
			contribs++
		}
	}

	// Streams and barrier in one int32 slab, filed as Compile files them.
	slab := make([]int32, nw+1+n+groups+1+contribs)
	q.streamOff, q.streams = slab[:nw+1:nw+1], slab[nw+1:nw+1+n:nw+1+n]
	workers := 0
	for w := 0; w < nw; w++ {
		if cursor[w+1] > 0 {
			workers++
		}
		cursor[w+1] += cursor[w]
	}
	copy(q.streamOff, cursor)
	for k := range q.Instrs {
		w, _, _ := q.OpIndex(k)
		q.streams[cursor[w]] = int32(k)
		cursor[w]++
	}
	q.workers = make([]Worker, 0, workers)
	for w := 0; w < nw; w++ {
		if q.streamOff[w+1] > q.streamOff[w] {
			q.workers = append(q.workers, sh.WorkerAt(w))
		}
	}
	bar := slab[nw+1+n:]
	q.Barrier = fillBarrier(bar[:groups+1:groups+1], bar[groups+1:], sc.group)

	// The walk is a relabelling of p's when every stream keeps its order.
	for _, w := range p.workers {
		old := p.Stream(w)
		nu := q.Stream(Worker{Stage: w.Stage, Pipeline: perm[w.Pipeline]})
		for j, id := range old {
			if nu[j] != sc.id[id] {
				return q
			}
		}
	}
	start, end, makespan, ran := p.Plain()
	spans := make([]int64, 2*n)
	for k, key := range keys {
		spans[k], spans[n+k] = start[key.index], end[key.index]
	}
	q.plain.spans, q.plain.makespan, q.plain.ran = spans, makespan, ran
	atomic.StoreUint32(&q.plain.set, 1)
	return q
}
