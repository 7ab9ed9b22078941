package schedule

import (
	"fmt"
	"math"
)

// ValidateConfig controls schedule validation.
type ValidateConfig struct {
	// MemCap is the maximum number of in-flight activation units a worker
	// may hold (the MILP's M_Limit, Eq. 6, in activation units). Zero
	// disables the memory check.
	MemCap int
	// Costs is the cost table (NewCostTable) the schedule was solved under:
	// every op must take its worker's entry, or the schedule's homogeneous
	// Durations when the table is empty.
	Costs []int64
}

// Validate checks a schedule against the MILP constraint set of §4.2.2 on
// the Program it compiles to, and returns Compile's rejection as it is.
// Compile checks what the ops alone decide: every op lies in the shape and
// is placed at most once, every producer an op waits on is placed (Eq. 2–4
// as edges), forward and backward of a micro-batch run on one peer
// (ReRouteGrad semantics, §5), and the Program runs. Validate adds, in this
// order, what the placements' times and cfg decide: no op runs on a failed
// worker, each op takes its cost-table duration, every stage group holds
// its DP·MB weight gradients (Compile counts only the groups an optimizer
// gates), every edge's producer ends (plus communication) before its
// consumer starts (Eq. 2–4), no two ops of a stream overlap (Eq. 5), no
// stream holds more than MemCap in-flight activations (Eq. 6), every
// optimizer step starts after its stage's all-reduce, and every op of a
// worker's next iteration starts after its step.
func Validate(s *Schedule, cfg ValidateConfig) error {
	p, err := Compile(s)
	if err != nil {
		return err
	}
	sh, ps := p.Shape, s.Placements // instruction i is placement i

	for i := range ps {
		op := ps[i].Op
		if p.Failed[op.Worker()] {
			return fmt.Errorf("schedule: op %s placed on failed worker", op)
		}
		if got, want := p.Instrs[i].Dur, sh.CostOf(cfg.Costs, p.Durations, op.Worker(), op.Type); got != want {
			return fmt.Errorf("schedule: op %s has duration %d, want %d", op, got, want)
		}
	}

	// Every stage group's weight gradients, gated or not.
	for g := 0; g < sh.Iter*sh.PP; g++ {
		if got, want := len(p.Barrier.Group(g)), sh.DP*sh.MB; got != want {
			return fmt.Errorf("schedule: stage %d all-reduce of iteration %d is missing %d of its %d weight gradients", g%sh.PP, g/sh.PP, want-got, want)
		}
	}

	// Eq. 2–4: every edge's producer ends, plus its transport, before its
	// consumer starts.
	for i := range ps {
		c := &ps[i]
		for _, d := range p.Deps(i) {
			end := ps[d.From].End
			if c.Start >= end+p.EdgeLatency(d.Kind) {
				continue
			}
			switch {
			case d.Kind == DepActivation:
				return fmt.Errorf("schedule: %s starts at %d before upstream F ends %d (+comm %d)", c.Op, c.Start, end, p.Durations.Comm)
			case d.Kind == DepGradient:
				return fmt.Errorf("schedule: %s starts at %d before downstream BInput ends %d (+comm %d)", c.Op, c.Start, end, p.Durations.Comm)
			case p.Type(int(d.From)) == F:
				return fmt.Errorf("schedule: %s starts at %d before its F ends %d", c.Op, c.Start, end)
			}
			return fmt.Errorf("schedule: %s starts at %d before BInput ends %d", c.Op, c.Start, end)
		}
	}

	// Eq. 5 and Eq. 6, stream by stream.
	for _, w := range p.Workers() {
		stream := p.Stream(w)
		for n := 1; n < len(stream); n++ {
			if c, prevEnd := &ps[stream[n]], ps[stream[n-1]].End; c.Start < prevEnd {
				return fmt.Errorf("schedule: worker %s overlap: %s starts %d before previous op ends %d", w, c.Op, c.Start, prevEnd)
			}
		}
		if _, over := p.activations(stream, cfg.MemCap); cfg.MemCap > 0 && over >= 0 {
			return fmt.Errorf("schedule: worker %s holds %d in-flight activations at t=%d, cap %d", w, cfg.MemCap+1, ps[over].Start, cfg.MemCap)
		}
	}

	// The per-stage gradient all-reduce: every weight gradient of the group,
	// rerouted ones on peers included, ends before any peer steps.
	for i := range ps {
		if !p.Gated(i) {
			continue
		}
		_, g, _ := p.OpIndex(i)
		var last int64
		for _, c := range p.Barrier.Group(g) {
			last = max(last, ps[c].End)
		}
		if o := &ps[i]; o.Start < last {
			return fmt.Errorf("schedule: optimizer on %s starts %d before stage %d all-reduce is ready at %d", o.Op.Worker(), o.Start, o.Op.Stage, last)
		}
	}

	// A worker's step of iteration it-1 ends before its ops of iteration it
	// start.
	if sh.Iter == 1 {
		return nil
	}
	var stepEnd []int64 // per iteration: the worker's step end, MinInt64 for none
	for _, w := range p.Workers() {
		stream := p.Stream(w)
		stepEnd = filled(stepEnd, sh.Iter, math.MinInt64)
		for _, id := range stream {
			if o := &ps[id]; o.Op.Type == Optimizer {
				stepEnd[o.Op.Iter] = o.End
			}
		}
		for _, id := range stream {
			if c := &ps[id]; c.Op.Type != Optimizer && c.Op.Iter > 0 && c.Start < stepEnd[c.Op.Iter-1] {
				return fmt.Errorf("schedule: %s starts %d before previous iteration optimizer ends %d on %s", c.Op, c.Start, stepEnd[c.Op.Iter-1], w)
			}
		}
	}
	return nil
}

// activations counts the in-flight activation units of one stream in
// stream order: +1 at each F, whose activation stash it allocates, and -1
// at each B or BWeight, which frees its micro-batch's stash. A rerouted
// micro-batch counts against the worker that executes it. It returns the
// peak and the first F that lifts the count above limit, -1 if none.
// A stream is in start order, so when its ops do not overlap (Validate
// checks that first) the count before each F is the count a time-sorted
// sweep holds at its start.
func (p *Program) activations(stream []int32, limit int) (peak int, over int32) {
	held := 0
	over = -1
	for _, id := range stream {
		switch p.Instrs[id].typ {
		case F:
			if held++; held > limit && over < 0 {
				over = id
			}
			peak = max(peak, held)
		case B, BWeight:
			held--
		}
	}
	return peak, over
}

// PeakActivations returns the most in-flight activation units each worker
// with a stream holds, counted in stream order (activations) — the
// quantity Figure 12 plots, converted to bytes by the memory model.
func (p *Program) PeakActivations() map[Worker]int {
	peaks := make(map[Worker]int, len(p.workers))
	for _, w := range p.workers {
		peaks[w], _ = p.activations(p.Stream(w), math.MaxInt)
	}
	return peaks
}
