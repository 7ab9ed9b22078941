package schedule

import (
	"fmt"
	"sort"
	"sync"
)

// ValidateConfig controls schedule validation.
type ValidateConfig struct {
	// MemCap is the maximum number of in-flight activation units a worker
	// may hold (the MILP's M_Limit, Eq. 6, in activation units). Zero
	// disables the memory check.
	MemCap int
	// Decoupled states whether the schedule is expected to use split
	// BInput/BWeight ops (true) or coupled B ops (false). Mixed schedules
	// are allowed when the planner applies Decoupled BackProp selectively;
	// validation accepts either form per micro-batch regardless.
	Decoupled bool
	// Costs gives the expected per-(worker, op) durations for schedules
	// solved under a heterogeneous cost model. Nil means every op must
	// take the schedule's homogeneous Durations.
	Costs CostFunc
	// FrozenBefore, when > 0, admits placements on failed workers whose
	// End does not exceed it: a spliced schedule's frozen prefix keeps a
	// victim's durable pre-cut work (completed triples whose optimizer
	// step already applied) at its executed time, even though the worker
	// is failed in the post-event set. Anything a failed worker would
	// execute at or after FrozenBefore is still rejected. Frozen
	// placements are also exempt from dependency-timing checks: they
	// consumed their inputs in the pre-splice timeline, which validated
	// when it executed, while a producer they historically read from may
	// be re-placed after the cut to re-materialize state its victim lost.
	FrozenBefore int64
}

// validateScratch is Validate's working set (pooled, see compileScratch).
// Tables are indexed by the Shape's dense op index and hold positions in
// Schedule.Placements, -1 for "absent".
type validateScratch struct {
	fAt, bInAt, bWAt []int32 // per triple: F, BInput-or-B, BWeight-or-B
	optAt            []int32 // per (stage group, exec): the worker's optimizer of that iteration
	lastBW           []int64 // per stage group: latest weight-gradient end
	failed           []bool  // per worker
	workerOff        []int32 // per worker: offset into byWorker (CSR)
	byWorker         []int32 // placement positions grouped by worker, in start order
}

var validatePool = sync.Pool{New: func() any { return new(validateScratch) }}

// Validate checks a schedule against the MILP constraint set of §4.2.2:
// completeness (each operation assigned exactly once, Σ S = 1),
// cross-stage dependencies (Eq. 2, 3), same-stage dependencies (Eq. 4),
// no overlapping computation per worker (Eq. 5), the memory bound (Eq. 6),
// plus the runtime invariants that failed workers execute nothing and that
// forward and backward of a micro-batch run on the same peer (§5,
// ReRouteGrad semantics).
func Validate(s *Schedule, cfg ValidateConfig) error {
	if err := s.Shape.Validate(); err != nil {
		return err
	}
	sh, ps := s.Shape, s.Placements
	if !sh.Indexable(len(ps)) {
		return fmt.Errorf("schedule: %d placements cannot cover shape %+v", len(ps), sh)
	}
	frozen := func(p *Placement) bool {
		return cfg.FrozenBefore > 0 && p.End <= cfg.FrozenBefore
	}
	sc := validatePool.Get().(*validateScratch)
	defer validatePool.Put(sc)
	triples, groups, nw := sh.Triples(), sh.Iter*sh.PP, sh.DP*sh.PP
	sc.fAt = filled(sc.fAt, triples, -1)
	sc.bInAt = filled(sc.bInAt, triples, -1)
	sc.bWAt = filled(sc.bWAt, triples, -1)
	sc.optAt = filled(sc.optAt, groups*sh.DP, -1)
	sc.lastBW = filled(sc.lastBW, groups, 0)
	sc.failed = filled(sc.failed, nw, false)
	sc.workerOff = filled(sc.workerOff, nw+1, 0)
	fAt, bInAt, bWAt, optAt, lastBW, failed, workerOff := sc.fAt, sc.bInAt, sc.bWAt, sc.optAt, sc.lastBW, sc.failed, sc.workerOff
	for w, down := range s.Failed {
		if i := sh.WorkerIndex(w); down && i >= 0 {
			failed[i] = true
		}
	}

	for i := range ps {
		p := &ps[i]
		w, g, kk, ok := sh.OpIndex(p.Op)
		if !ok {
			return fmt.Errorf("schedule: op %s lies outside shape %+v", p.Op, sh)
		}
		if failed[w] && (cfg.FrozenBefore <= 0 || p.End > cfg.FrozenBefore) {
			return fmt.Errorf("schedule: op %s placed on failed worker", p.Op)
		}
		want := s.Durations.Of(p.Op.Type)
		if cfg.Costs != nil {
			want = cfg.Costs(p.Op.Worker(), p.Op.Type)
		}
		if got := p.End - p.Start; got != want {
			return fmt.Errorf("schedule: op %s has duration %d, want %d", p.Op, got, want)
		}
		workerOff[w+1]++
		switch p.Op.Type {
		case Optimizer:
			optAt[g*sh.DP+p.Op.Exec] = int32(i)
		case F:
			if fAt[kk] >= 0 {
				return fmt.Errorf("schedule: duplicate F for %s", p.Op)
			}
			fAt[kk] = int32(i)
		case B:
			if bInAt[kk] >= 0 {
				return fmt.Errorf("schedule: duplicate backward for %s", p.Op)
			}
			bInAt[kk], bWAt[kk] = int32(i), int32(i)
		case BInput:
			if bInAt[kk] >= 0 {
				return fmt.Errorf("schedule: duplicate BInput for %s", p.Op)
			}
			bInAt[kk] = int32(i)
		case BWeight:
			if bWAt[kk] >= 0 {
				return fmt.Errorf("schedule: duplicate BWeight for %s", p.Op)
			}
			bWAt[kk] = int32(i)
		}
		if (p.Op.Type == BWeight || p.Op.Type == B) && p.End > lastBW[g] {
			lastBW[g] = p.End
		}
	}

	// Completeness + dependency checks.
	stride := sh.DP * sh.MB // triple-index distance between adjacent stages
	for it := 0; it < sh.Iter; it++ {
		for k := 0; k < sh.DP; k++ {
			for j := 0; j < sh.MB; j++ {
				for i := 0; i < sh.PP; i++ {
					kk := sh.TripleIndex(it, i, k, j)
					if fAt[kk] < 0 {
						return fmt.Errorf("schedule: missing F stage=%d mb=%d pipe=%d iter=%d", i, j, k, it)
					}
					if bInAt[kk] < 0 {
						return fmt.Errorf("schedule: missing backward-input stage=%d mb=%d pipe=%d iter=%d", i, j, k, it)
					}
					if bWAt[kk] < 0 {
						return fmt.Errorf("schedule: missing backward-weight stage=%d mb=%d pipe=%d iter=%d", i, j, k, it)
					}
					f, bi, bw := &ps[fAt[kk]], &ps[bInAt[kk]], &ps[bWAt[kk]]
					// Forward and backward of a micro-batch on the same peer.
					if f.Op.Exec != bi.Op.Exec || bi.Op.Exec != bw.Op.Exec {
						return fmt.Errorf("schedule: micro-batch (i=%d j=%d k=%d) split across peers F@%d BI@%d BW@%d", i, j, k, f.Op.Exec, bi.Op.Exec, bw.Op.Exec)
					}
					// Eq. 2: forward cross-stage dependency. (Stages are
					// visited in order, so the upstream forward exists.)
					if i > 0 && !frozen(f) {
						prev := &ps[fAt[kk-stride]]
						if f.Start < prev.End+s.Durations.Comm {
							return fmt.Errorf("schedule: %s starts at %d before upstream F ends %d (+comm %d)", f.Op, f.Start, prev.End, s.Durations.Comm)
						}
					}
					// Local data dependency: backward needs this stage's stash.
					if !frozen(bi) && bi.Start < f.End {
						return fmt.Errorf("schedule: %s starts at %d before its F ends %d", bi.Op, bi.Start, f.End)
					}
					// Eq. 3: backward cross-stage dependency. A downstream
					// backward-input that is missing (reported when its own
					// stage is visited) counts as ending at 0.
					if i < sh.PP-1 && !frozen(bi) {
						var nextEnd int64
						if at := bInAt[kk+stride]; at >= 0 {
							nextEnd = ps[at].End
						}
						if bi.Start < nextEnd+s.Durations.Comm {
							return fmt.Errorf("schedule: %s starts at %d before downstream BInput ends %d (+comm %d)", bi.Op, bi.Start, nextEnd, s.Durations.Comm)
						}
					}
					// Eq. 4: BWeight after BInput.
					if bw.Op.Type == BWeight && !frozen(bw) && bw.Start < bi.End {
						return fmt.Errorf("schedule: %s starts at %d before BInput ends %d", bw.Op, bw.Start, bi.End)
					}
				}
			}
		}
	}

	// Group placement positions by worker (count -> prefix sum -> fill; the
	// fill leaves workerOff[w] at the end of w's group). Placements are in
	// start order, so every group is too.
	for w := 0; w < nw; w++ {
		workerOff[w+1] += workerOff[w]
	}
	sc.byWorker = filled(sc.byWorker, len(ps), 0)
	byWorker := sc.byWorker
	for i := range ps {
		w := sh.WorkerIndex(ps[i].Op.Worker())
		byWorker[workerOff[w]] = int32(i)
		workerOff[w]++
	}

	// Eq. 5: no overlap per worker; memory sweep (Eq. 6).
	var mem []Placement
	lo := int32(0)
	for w := 0; w < nw; w++ {
		group := byWorker[lo:workerOff[w]]
		lo = workerOff[w]
		var prevEnd int64
		for n, at := range group {
			p := &ps[at]
			if n > 0 && p.Start < prevEnd {
				return fmt.Errorf("schedule: worker %s overlap: %s starts %d before previous op ends %d", sh.WorkerAt(w), p.Op, p.Start, prevEnd)
			}
			prevEnd = p.End
		}
		if cfg.MemCap > 0 && len(group) > 0 {
			mem = mem[:0]
			for _, at := range group {
				mem = append(mem, ps[at])
			}
			if err := checkMemory(sh.WorkerAt(w), mem, cfg.MemCap); err != nil {
				return err
			}
		}
	}

	// The per-stage gradient all-reduce needs every BWeight of that stage
	// — including rerouted ones executed on peers — before any peer of the
	// stage can step its optimizer.
	for i := range ps {
		if o := &ps[i]; o.Op.Type == Optimizer {
			if last := lastBW[sh.StageIndex(o.Op.Iter, o.Op.Stage)]; o.Start < last {
				return fmt.Errorf("schedule: optimizer on %s starts %d before stage %d all-reduce is ready at %d", o.Op.Worker(), o.Start, o.Op.Stage, last)
			}
		}
	}

	// Optimizer: per worker and iteration, the step must follow every
	// BWeight that stage executes in that iteration, and precede every op
	// of the next iteration on that worker.
	for i := range ps {
		p := &ps[i]
		if p.Op.Type == Optimizer {
			continue
		}
		at := sh.StageIndex(p.Op.Iter, p.Op.Stage)*sh.DP + p.Op.Exec
		if o := optAt[at]; o >= 0 && (p.Op.Type == BWeight || p.Op.Type == B) && p.End > ps[o].Start {
			return fmt.Errorf("schedule: %s ends %d after optimizer starts %d on %s", p.Op, p.End, ps[o].Start, p.Op.Worker())
		}
		if p.Op.Iter > 0 {
			if o := optAt[at-sh.PP*sh.DP]; o >= 0 && p.Start < ps[o].End {
				return fmt.Errorf("schedule: %s starts %d before previous iteration optimizer ends %d on %s", p.Op, p.Start, ps[o].End, p.Op.Worker())
			}
		}
	}
	return nil
}

// checkMemory sweeps a worker's timeline counting in-flight activation
// units: +1 when a forward starts (activation stash allocated), -1 when the
// micro-batch's weight gradient completes (stash freed). Rerouted
// micro-batches count against the peer that executes them.
func checkMemory(w Worker, ps []Placement, cap int) error {
	type ev struct {
		t     int64
		delta int
		order int // frees before allocs at the same instant
	}
	var evs []ev
	for _, p := range ps {
		switch p.Op.Type {
		case F:
			evs = append(evs, ev{p.Start, +1, 1})
		case B, BWeight:
			evs = append(evs, ev{p.End, -1, 0})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return evs[a].order < evs[b].order
	})
	held := 0
	for _, e := range evs {
		held += e.delta
		if held > cap {
			return fmt.Errorf("schedule: worker %s holds %d in-flight activations at t=%d, cap %d", w, held, e.t, cap)
		}
	}
	return nil
}

// PeakActivations returns the maximum number of in-flight activation units
// each worker holds — the quantity Figure 12 plots (converted to bytes by
// the memory model).
func PeakActivations(s *Schedule) map[Worker]int {
	peaks := make(map[Worker]int)
	for _, w := range s.Workers() {
		type ev struct {
			t     int64
			delta int
			order int
		}
		var evs []ev
		for _, p := range s.Worker(w) {
			switch p.Op.Type {
			case F:
				evs = append(evs, ev{p.Start, +1, 1})
			case B, BWeight:
				evs = append(evs, ev{p.End, -1, 0})
			}
		}
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].t != evs[b].t {
				return evs[a].t < evs[b].t
			}
			return evs[a].order < evs[b].order
		})
		held, peak := 0, 0
		for _, e := range evs {
			held += e.delta
			if held > peak {
				peak = held
			}
		}
		peaks[w] = peak
	}
	return peaks
}
