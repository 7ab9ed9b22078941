package schedule

import (
	"cmp"
	"fmt"
	"slices"
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
type validateScratch struct {
	pos       []int32 // per op slot: position in Schedule.Placements, -1 for absent
	lastBW    []int64 // per stage group: latest weight-gradient end
	failed    []bool  // per worker
	workerOff []int32 // per worker: offset into byWorker (CSR)
	byWorker  []int32 // placement positions grouped by worker, in start order
}

var validatePool = sync.Pool{New: func() any { return new(validateScratch) }}

// slotName names a triple's three op slots in a completeness rejection.
var slotName = [3]string{"F", "backward-input", "backward-weight"}

// lateName names an Input's producer in a timing rejection.
func lateName(in Input) string {
	switch {
	case in.Kind == DepActivation:
		return "upstream F"
	case in.Kind == DepGradient:
		return "downstream BInput"
	case in.Slot%3 == 0:
		return "its F"
	}
	return "BInput"
}

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
	groups, nw := sh.Iter*sh.PP, sh.DP*sh.PP
	sc.pos = filled(sc.pos, sh.Slots(), -1)
	sc.lastBW = filled(sc.lastBW, groups, 0)
	sc.failed = filled(sc.failed, nw, false)
	sc.workerOff = filled(sc.workerOff, nw+1, 0)
	pos, lastBW, failed, workerOff := sc.pos, sc.lastBW, sc.failed, sc.workerOff
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
		if p.Op.Type < F || p.Op.Type > Optimizer {
			continue
		}
		if p.Op.Type == Optimizer {
			kk = g
		}
		// A later optimizer of the same worker and group replaces the
		// earlier; a coupled B fills the BWeight slot too.
		switch sl := sh.Slot(p.Op.Type, kk, p.Op.Exec); {
		case p.Op.Type != Optimizer && pos[sl] >= 0:
			return fmt.Errorf("schedule: duplicate %s for %s", dupName[p.Op.Type], p.Op)
		case p.Op.Type == B:
			pos[sl], pos[sl+1] = int32(i), int32(i)
		default:
			pos[sl] = int32(i)
		}
		if contributes(p.Op.Type) && p.End > lastBW[g] {
			lastBW[g] = p.End
		}
	}

	// Completeness + dependency checks. A producer that is missing — only
	// a downstream backward-input can be, and it is reported when its own
	// stage is visited — counts as ending at 0.
	var inputs [2]Input
	for it := 0; it < sh.Iter; it++ {
		for k := 0; k < sh.DP; k++ {
			for j := 0; j < sh.MB; j++ {
				for i := 0; i < sh.PP; i++ {
					kk := sh.TripleIndex(it, i, k, j)
					slots := pos[3*kk : 3*kk+3]
					for n, at := range slots {
						if at < 0 {
							return fmt.Errorf("schedule: missing %s stage=%d mb=%d pipe=%d iter=%d", slotName[n], i, j, k, it)
						}
					}
					f, bi, bw := &ps[slots[0]], &ps[slots[1]], &ps[slots[2]]
					// Forward and backward of a micro-batch on the same peer.
					if f.Op.Exec != bi.Op.Exec || bi.Op.Exec != bw.Op.Exec {
						return fmt.Errorf("schedule: micro-batch (i=%d j=%d k=%d) split across peers F@%d BI@%d BW@%d", i, j, k, f.Op.Exec, bi.Op.Exec, bw.Op.Exec)
					}
					// Eq. 2–4, each op of the triple once (a coupled B
					// holds two slots).
					for n, at := range slots {
						c := &ps[at]
						if frozen(c) || n == 2 && at == slots[1] {
							continue
						}
						for _, d := range sh.AppendInputs(inputs[:0], c.Op.Type, i, kk) {
							var end int64
							if pr := pos[d.Slot]; pr >= 0 {
								end = ps[pr].End
							}
							if c.Start >= end+s.Durations.EdgeLatency(d.Kind) {
								continue
							}
							if d.Kind == DepLocal {
								return fmt.Errorf("schedule: %s starts at %d before %s ends %d", c.Op, c.Start, lateName(d), end)
							}
							return fmt.Errorf("schedule: %s starts at %d before %s ends %d (+comm %d)", c.Op, c.Start, lateName(d), end, s.Durations.Comm)
						}
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
		g := sh.StageIndex(p.Op.Iter, p.Op.Stage)
		if o := pos[sh.Slot(Optimizer, g, p.Op.Exec)]; o >= 0 && contributes(p.Op.Type) && p.End > ps[o].Start {
			return fmt.Errorf("schedule: %s ends %d after optimizer starts %d on %s", p.Op, p.End, ps[o].Start, p.Op.Worker())
		}
		if p.Op.Iter > 0 {
			if o := pos[sh.Slot(Optimizer, g-sh.PP, p.Op.Exec)]; o >= 0 && p.Start < ps[o].End {
				return fmt.Errorf("schedule: %s starts %d before previous iteration optimizer ends %d on %s", p.Op, p.Start, ps[o].End, p.Op.Worker())
			}
		}
	}
	return nil
}

// sweepActivations walks a worker's placements counting in-flight
// activation units: +1 when a forward starts (activation stash allocated),
// -1 when the micro-batch's B or BWeight ends (stash freed), frees first at
// the same instant. Rerouted micro-batches count against the peer that
// executes them. visit sees the count after each change, in time order,
// until it returns false.
func sweepActivations(ps []Placement, visit func(held int, t int64) bool) {
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
		if held += e.delta; !visit(held, e.t) {
			return
		}
	}
}

// checkMemory rejects a worker's timeline that ever holds more than cap
// in-flight activation units.
func checkMemory(w Worker, ps []Placement, cap int) (err error) {
	sweepActivations(ps, func(held int, t int64) bool {
		if held > cap {
			err = fmt.Errorf("schedule: worker %s holds %d in-flight activations at t=%d, cap %d", w, held, t, cap)
		}
		return err == nil
	})
	return err
}

// PeakActivations returns the maximum number of in-flight activation units
// each worker holds — the quantity Figure 12 plots (converted to bytes by
// the memory model).
func PeakActivations(s *Schedule) map[Worker]int {
	peaks := make(map[Worker]int)
	for _, w := range s.Workers() {
		peak := 0
		sweepActivations(s.Worker(w), func(held int, _ int64) bool { peak = max(peak, held); return true })
		peaks[w] = peak
	}
	return peaks
}
