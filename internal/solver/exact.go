package solver

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"recycle/internal/schedule"
)

// ExactResult is the outcome of a branch-and-bound makespan search.
type ExactResult struct {
	Makespan int64
	Optimal  bool // false if the node budget expired first
	Nodes    int64
}

// exNode is one compute op in the exact search's dependency DAG.
type exNode struct {
	dur   int64
	succs []int
	comms []int64
	wi    int
	isF   bool
	frees bool // B or BWeight: releases an activation unit at completion
}

// ExactMakespan runs a branch-and-bound search for the minimum compute
// makespan of one iteration (forward and backward of every micro-batch,
// optimizer excluded), subject to the same dependency, no-overlap, routing
// and memory constraints as the greedy solver.
//
// Branching follows Giffler–Thompson active-schedule generation, which is
// guaranteed to contain an optimal schedule for makespan; the bound is the
// critical-path tail of every ready op. The search is exponential and is
// meant to certify the heuristic on small instances (DP<=3, PP<=4, MB<=6).
// maxNodes bounds the search (shared across all subtrees); when exceeded,
// the best makespan found so far (never worse than the seed incumbent) is
// returned with Optimal=false.
//
// The incumbent is seeded through Solve, so a compatible in.Hint makes the
// seed a warm validation instead of a full greedy run; and when the
// incumbent already meets the critical-path lower bound at the root — the
// common case when re-certifying a hinted plan — the search returns it
// unchanged without burning any of the node budget. Otherwise the root's
// branch set is fanned out over a worker pool (work-stealing over subtree
// roots) with a shared atomic incumbent, so one subtree's improvement
// immediately tightens every other subtree's bound.
func ExactMakespan(in Input, maxNodes int64) (ExactResult, error) {
	if in.Shape.Iter != 1 {
		return ExactResult{}, fmt.Errorf("solver: exact search supports single-iteration shapes only")
	}
	routes, err := RouteMicroBatchesCost(in.Shape, in.Failed, in.Costs)
	if err != nil {
		return ExactResult{}, err
	}
	st := newState(in, routes)

	// Project the task graph onto compute ops: with one iteration they are
	// every task but the optimizers (one per live worker, created last and
	// without edges), so task IDs are node indices.
	n := len(st.tasks) - len(st.workers)
	nodes := make([]exNode, n)
	npreds := make([]int, n)
	for i := range nodes {
		t := &st.tasks[i]
		nd := exNode{
			dur:   t.dur,
			wi:    int(t.wi),
			isF:   t.op.Type == schedule.F,
			frees: t.op.Type == schedule.B || t.op.Type == schedule.BWeight,
		}
		for _, sc := range t.next() {
			nd.succs = append(nd.succs, int(sc.id))
			nd.comms = append(nd.comms, sc.comm)
			npreds[sc.id]++
		}
		nodes[i] = nd
	}
	caps, nw := exCaps(in, st), len(st.workers)
	st.release()

	// Critical-path tails for the lower bound (reverse topological order).
	tail := make([]int64, n)
	order := exTopo(nodes)
	for oi := len(order) - 1; oi >= 0; oi-- {
		v := order[oi]
		tail[v] = nodes[v].dur
		for si, sv := range nodes[v].succs {
			if l := nodes[v].dur + nodes[v].comms[si] + tail[sv]; l > tail[v] {
				tail[v] = l
			}
		}
	}

	// Incumbent: the greedy (or hint-validated) solution.
	best := int64(1) << 62
	if g, err := Solve(in); err == nil {
		best = g.ComputeMakespan(0)
	}

	// Root bound: when the incumbent already meets the critical-path lower
	// bound, no schedule can beat it — return it as proven optimal without
	// expanding a single node.
	rootLB := int64(0)
	for i := 0; i < n; i++ {
		if npreds[i] == 0 && tail[i] > rootLB {
			rootLB = tail[i]
		}
	}
	if rootLB >= best {
		return ExactResult{Makespan: best, Optimal: true}, nil
	}

	e := &exSearch{
		nodes:    nodes,
		tail:     tail,
		caps:     caps,
		n:        n,
		nw:       nw,
		maxNodes: maxNodes,
	}
	e.best.Store(best)

	root := &exCtx{
		predEnd: make([]int64, n),
		pend:    append([]int(nil), npreds...),
		placed:  make([]bool, n),
		free:    make([]int64, e.nw),
		held:    make([]int, e.nw),
		left:    n,
	}
	e.nodeCount.Add(1) // the root itself
	branches := e.rootBranches(root)

	workers := min(runtime.GOMAXPROCS(0), len(branches))
	if workers <= 1 {
		for _, b := range branches {
			e.dfs(b)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(branches) {
						return
					}
					e.dfs(branches[i])
				}
			}()
		}
		wg.Wait()
	}
	return ExactResult{Makespan: e.best.Load(), Optimal: !e.pruned.Load(), Nodes: e.nodeCount.Load()}, nil
}

// exSearch is the shared, read-only (plus atomics) side of the search.
type exSearch struct {
	nodes     []exNode
	tail      []int64
	caps      []int
	n, nw     int
	maxNodes  int64
	nodeCount atomic.Int64
	best      atomic.Int64 // shared incumbent across all subtrees
	pruned    atomic.Bool  // node budget expired somewhere
}

// exCtx is one subtree's mutable search state; each worker owns its own.
type exCtx struct {
	predEnd  []int64 // max over placed preds of end+comm
	pend     []int
	placed   []bool
	free     []int64
	held     []int
	left     int
	makespan int64
}

func (c *exCtx) clone() *exCtx {
	return &exCtx{
		predEnd:  append([]int64(nil), c.predEnd...),
		pend:     append([]int(nil), c.pend...),
		placed:   append([]bool(nil), c.placed...),
		free:     append([]int64(nil), c.free...),
		held:     append([]int(nil), c.held...),
		left:     c.left,
		makespan: c.makespan,
	}
}

// improve lowers the shared incumbent to m if it is an improvement.
func (e *exSearch) improve(m int64) {
	for {
		cur := e.best.Load()
		if m >= cur || e.best.CompareAndSwap(cur, m) {
			return
		}
	}
}

// selectMachine runs the Giffler–Thompson machine-selection and bounding
// step on the context: the machine hosting the minimum earliest completion
// time among ready ops, plus the critical-path lower bound.
func (e *exSearch) selectMachine(c *exCtx) (selW int, minECT, lb int64) {
	lb = c.makespan
	minECT = int64(1) << 62
	selW = -1
	for i := 0; i < e.n; i++ {
		if c.placed[i] || c.pend[i] > 0 {
			continue
		}
		est := c.predEnd[i]
		if f := c.free[e.nodes[i].wi]; f > est {
			est = f
		}
		if b := est + e.tail[i]; b > lb {
			lb = b
		}
		if ect := est + e.nodes[i].dur; ect < minECT || (ect == minECT && e.nodes[i].wi < selW) {
			minECT = ect
			selW = e.nodes[i].wi
		}
	}
	return selW, minECT, lb
}

// apply places node i on machine selW in the context and returns the end
// time. The caller is responsible for the matching undo.
func (e *exSearch) apply(c *exCtx, i, selW int, est int64) int64 {
	nd := &e.nodes[i]
	end := est + nd.dur
	c.placed[i] = true
	c.left--
	c.free[selW] = end
	if nd.isF {
		c.held[selW]++
	} else if nd.frees {
		c.held[selW]--
	}
	for si, sv := range nd.succs {
		c.pend[sv]--
		if r := end + nd.comms[si]; r > c.predEnd[sv] {
			c.predEnd[sv] = r
		}
	}
	return end
}

// rootBranches expands the root node's Giffler–Thompson branch set into
// independent subtree contexts — the units the worker pool steals.
func (e *exSearch) rootBranches(root *exCtx) []*exCtx {
	selW, minECT, lb := e.selectMachine(root)
	if lb >= e.best.Load() || selW < 0 {
		return nil
	}
	var out []*exCtx
	for i := 0; i < e.n; i++ {
		if root.placed[i] || root.pend[i] > 0 || e.nodes[i].wi != selW {
			continue
		}
		est := root.predEnd[i]
		if f := root.free[selW]; f > est {
			est = f
		}
		if est >= minECT {
			continue
		}
		if e.nodes[i].isF && e.caps != nil && root.held[selW]+1 > e.caps[selW] {
			continue
		}
		c := root.clone()
		end := e.apply(c, i, selW, est)
		if end > c.makespan {
			c.makespan = end
		}
		out = append(out, c)
	}
	return out
}

// dfs explores one subtree depth-first with the shared incumbent bound.
func (e *exSearch) dfs(c *exCtx) {
	if e.nodeCount.Add(1) > e.maxNodes {
		e.pruned.Store(true)
		return
	}
	if c.left == 0 {
		e.improve(c.makespan)
		return
	}
	selW, minECT, lb := e.selectMachine(c)
	if lb >= e.best.Load() || selW < 0 {
		return
	}
	for i := 0; i < e.n; i++ {
		if c.placed[i] || c.pend[i] > 0 || e.nodes[i].wi != selW {
			continue
		}
		est := c.predEnd[i]
		if f := c.free[selW]; f > est {
			est = f
		}
		if est >= minECT {
			continue // not part of any active schedule at this node
		}
		nd := &e.nodes[i]
		if nd.isF && e.caps != nil && c.held[selW]+1 > e.caps[selW] {
			continue
		}
		// Apply.
		oldFree := c.free[selW]
		type saved struct {
			idx int
			pe  int64
		}
		saves := make([]saved, len(nd.succs))
		for si, sv := range nd.succs {
			saves[si] = saved{sv, c.predEnd[sv]}
		}
		end := e.apply(c, i, selW, est)
		oldMakespan := c.makespan
		if end > c.makespan {
			c.makespan = end
		}
		e.dfs(c)
		// Undo.
		c.makespan = oldMakespan
		for _, sv := range saves {
			c.predEnd[sv.idx] = sv.pe
		}
		for _, sv := range nd.succs {
			c.pend[sv]++
		}
		if nd.isF {
			c.held[selW]--
		} else if nd.frees {
			c.held[selW]++
		}
		c.free[selW] = oldFree
		c.placed[i] = false
		c.left++
		if e.pruned.Load() {
			return
		}
	}
}

// exCaps resolves the per-worker activation caps for the exact search.
func exCaps(in Input, st *state) []int {
	if in.MemCapPerStage == nil && in.MemCap <= 0 {
		return nil
	}
	caps := make([]int, len(st.workers))
	for wi := range st.workers {
		if in.MemCapPerStage != nil {
			caps[wi] = in.MemCapPerStage[st.workers[wi].w.Stage]
		} else {
			caps[wi] = in.MemCap
		}
	}
	return caps
}

// exTopo returns a topological order of the compute DAG.
func exTopo(nodes []exNode) []int {
	n := len(nodes)
	indeg := make([]int, n)
	for i := range nodes {
		for _, s := range nodes[i].succs {
			indeg[s]++
		}
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, s := range nodes[v].succs {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return order
}
