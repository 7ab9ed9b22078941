package replay

import (
	"fmt"

	"recycle/internal/schedule"
)

// This file keeps the frozen-prefix lowering and validation the schedule
// package ran for Splice before Splice built and timed its Program itself
// (schedule.CompileFrozen and schedule.Validate's FrozenBefore), as the
// reference's back half. Their rejections keep their text: Splice's
// explicit boundary checks must reproduce it.

// contributes reports whether an op of type t feeds its stage's gradient
// all-reduce.
func contributes(t schedule.OpType) bool { return t == schedule.B || t == schedule.BWeight }

// dupName names an op type in a duplicate-op rejection.
var dupName = [...]string{schedule.F: "F", schedule.B: "backward", schedule.BInput: "BInput", schedule.BWeight: "BWeight", schedule.Optimizer: "optimizer"}

// compileFrozenRef lowers a spliced schedule whose executed prefix is
// frozen: placements ending at or before frozenBefore already ran pre-event,
// so they get no dependency edges and the barrier does not gate a frozen
// optimizer. Every other instruction is lowered as schedule.Compile lowers
// it; instruction IDs follow the schedule's order.
func compileFrozenRef(s *schedule.Schedule, frozenBefore int64) (*schedule.Program, error) {
	if err := s.Shape.Validate(); err != nil {
		return nil, err
	}
	sh, n := s.Shape, len(s.Placements)
	if !sh.Indexable(n) {
		return nil, fmt.Errorf("schedule: compile: %d placements cannot cover shape %+v", n, sh)
	}
	frozen := func(i int) bool { return frozenBefore > 0 && s.Placements[i].End <= frozenBefore }
	id := make([]int32, sh.Slots())
	for i := range id {
		id[i] = -1
	}
	contribs := make([]int, sh.Iter*sh.PP)
	byWorker := make([][]int, sh.DP*sh.PP)
	var inputs [2]schedule.Input
	edges := 0
	for i := range s.Placements {
		op := s.Placements[i].Op
		w, g, k, ok := sh.OpIndex(op)
		if !ok {
			return nil, fmt.Errorf("schedule: compile: %s lies outside shape %+v", op, sh)
		}
		byWorker[w] = append(byWorker[w], i)
		at := k
		if op.Type == schedule.Optimizer {
			at = g
		}
		sl := sh.Slot(op.Type, at, op.Exec)
		switch {
		case op.Type < schedule.F || op.Type > schedule.Optimizer:
			return nil, fmt.Errorf("schedule: compile: %s has unknown type %d", op, op.Type)
		case id[sl] >= 0:
			return nil, fmt.Errorf("schedule: compile: duplicate %s for %s (instr %d and %d)", dupName[op.Type], op, id[sl], i)
		case op.Type == schedule.B && id[sl+1] >= 0:
			return nil, fmt.Errorf("schedule: compile: duplicate weight gradient for %s (instr %d and %d)", op, id[sl+1], i)
		case op.Type == schedule.Optimizer && (op.MB != -1 || op.Home != op.Exec):
			return nil, fmt.Errorf("schedule: compile: %s carries MB %d and home %d, not -1 and its executor", op, op.MB, op.Home)
		case op.Type == schedule.B:
			id[sl+1] = int32(i)
		}
		id[sl] = int32(i)
		if contributes(op.Type) {
			contribs[g]++
		}
		if !frozen(i) {
			edges += len(sh.AppendInputs(inputs[:0], op.Type, op.Stage, k))
		}
	}
	b := schedule.NewProgramBuilder(sh, s.Durations, s.Failed, n, edges)
	for i := range s.Placements {
		pl := &s.Placements[i]
		_, g, k, _ := sh.OpIndex(pl.Op)
		gated := pl.Op.Type == schedule.Optimizer && !frozen(i)
		if gated && contribs[g] != sh.DP*sh.MB {
			return nil, fmt.Errorf("schedule: compile: %s gates on %d weight gradients, want %d", pl.Op, contribs[g], sh.DP*sh.MB)
		}
		b.Instr(pl.Op, pl.End-pl.Start, gated)
		if frozen(i) || pl.Op.Type == schedule.Optimizer {
			continue
		}
		for _, d := range sh.AppendInputs(inputs[:0], pl.Op.Type, pl.Op.Stage, k) {
			if id[d.Slot] < 0 {
				return nil, fmt.Errorf("schedule: compile: %s has no %s", pl.Op, d)
			}
			b.Dep(int(id[d.Slot]), d.Kind)
		}
	}
	for w, ids := range byWorker {
		if len(ids) == 0 {
			continue
		}
		b.Stream(sh.WorkerAt(w))
		for _, i := range ids {
			b.Next(i)
		}
	}
	// CompileFrozen validated what it built, deadlock-freedom included; the
	// builder checks structure only.
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return p, p.Validate()
}

// slotName names a triple's three op slots in a completeness rejection.
var slotName = [3]string{"F", "backward-input", "backward-weight"}

// lateName names an Input's producer in a timing rejection.
func lateName(in schedule.Input) string {
	switch {
	case in.Kind == schedule.DepActivation:
		return "upstream F"
	case in.Kind == schedule.DepGradient:
		return "downstream BInput"
	case in.Slot%3 == 0:
		return "its F"
	}
	return "BInput"
}

// validateFrozenRef checks a spliced schedule as schedule.Validate did under
// Costs and FrozenBefore: the MILP constraints of §4.2.2, except that a
// placement ending at or before frozenBefore may sit on a failed worker and
// is exempt from dependency timing — it consumed its inputs before the
// event.
func validateFrozenRef(s *schedule.Schedule, costs func(schedule.Worker, schedule.OpType) int64, frozenBefore int64) error {
	if err := s.Shape.Validate(); err != nil {
		return err
	}
	sh, ps := s.Shape, s.Placements
	if !sh.Indexable(len(ps)) {
		return fmt.Errorf("schedule: %d placements cannot cover shape %+v", len(ps), sh)
	}
	frozen := func(p *schedule.Placement) bool { return frozenBefore > 0 && p.End <= frozenBefore }
	pos := make([]int32, sh.Slots())
	for i := range pos {
		pos[i] = -1
	}
	lastBW := make([]int64, sh.Iter*sh.PP)
	for i := range ps {
		p := &ps[i]
		_, g, kk, ok := sh.OpIndex(p.Op)
		if !ok {
			return fmt.Errorf("schedule: op %s lies outside shape %+v", p.Op, sh)
		}
		if s.Failed[p.Op.Worker()] && !frozen(p) {
			return fmt.Errorf("schedule: op %s placed on failed worker", p.Op)
		}
		if got, want := p.End-p.Start, costs(p.Op.Worker(), p.Op.Type); got != want {
			return fmt.Errorf("schedule: op %s has duration %d, want %d", p.Op, got, want)
		}
		if p.Op.Type < schedule.F || p.Op.Type > schedule.Optimizer {
			continue
		}
		if p.Op.Type == schedule.Optimizer {
			kk = g
		}
		switch sl := sh.Slot(p.Op.Type, kk, p.Op.Exec); {
		case p.Op.Type != schedule.Optimizer && pos[sl] >= 0:
			return fmt.Errorf("schedule: duplicate %s for %s", dupName[p.Op.Type], p.Op)
		case p.Op.Type == schedule.B:
			pos[sl], pos[sl+1] = int32(i), int32(i)
		default:
			pos[sl] = int32(i)
		}
		if contributes(p.Op.Type) && p.End > lastBW[g] {
			lastBW[g] = p.End
		}
	}

	var inputs [2]schedule.Input
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
					if f.Op.Exec != bi.Op.Exec || bi.Op.Exec != bw.Op.Exec {
						return fmt.Errorf("schedule: micro-batch (i=%d j=%d k=%d) split across peers F@%d BI@%d BW@%d", i, j, k, f.Op.Exec, bi.Op.Exec, bw.Op.Exec)
					}
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
							if d.Kind == schedule.DepLocal {
								return fmt.Errorf("schedule: %s starts at %d before %s ends %d", c.Op, c.Start, lateName(d), end)
							}
							return fmt.Errorf("schedule: %s starts at %d before %s ends %d (+comm %d)", c.Op, c.Start, lateName(d), end, s.Durations.Comm)
						}
					}
				}
			}
		}
	}

	for w := 0; w < sh.DP*sh.PP; w++ {
		group := s.Worker(sh.WorkerAt(w))
		for n := 1; n < len(group); n++ {
			if p := &group[n]; p.Start < group[n-1].End {
				return fmt.Errorf("schedule: worker %s overlap: %s starts %d before previous op ends %d", sh.WorkerAt(w), p.Op, p.Start, group[n-1].End)
			}
		}
	}

	for i := range ps {
		if o := &ps[i]; o.Op.Type == schedule.Optimizer {
			if last := lastBW[sh.StageIndex(o.Op.Iter, o.Op.Stage)]; o.Start < last {
				return fmt.Errorf("schedule: optimizer on %s starts %d before stage %d all-reduce is ready at %d", o.Op.Worker(), o.Start, o.Op.Stage, last)
			}
		}
	}

	for i := range ps {
		p := &ps[i]
		if p.Op.Type == schedule.Optimizer {
			continue
		}
		g := sh.StageIndex(p.Op.Iter, p.Op.Stage)
		if o := pos[sh.Slot(schedule.Optimizer, g, p.Op.Exec)]; o >= 0 && contributes(p.Op.Type) && p.End > ps[o].Start {
			return fmt.Errorf("schedule: %s ends %d after optimizer starts %d on %s", p.Op, p.End, ps[o].Start, p.Op.Worker())
		}
		if p.Op.Iter > 0 {
			if o := pos[sh.Slot(schedule.Optimizer, g-sh.PP, p.Op.Exec)]; o >= 0 && p.Start < ps[o].End {
				return fmt.Errorf("schedule: %s starts %d before previous iteration optimizer ends %d on %s", p.Op, p.Start, ps[o].End, p.Op.Worker())
			}
		}
	}
	return nil
}
