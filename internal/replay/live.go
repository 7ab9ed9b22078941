package replay

import (
	"fmt"
	"slices"
	"sync"

	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// Chain is one iteration's splice chain: the Program in flight, its
// timeline and the last cut. Replay, the live runtime's iteration driver
// and its chaos planner all advance one, event by event, so each event is
// cut from the timeline the previous splice produced.
type Chain struct {
	// Exec is the timeline of the Program in flight (Exec.Program): every
	// instruction's span as the walk times it from the Program's frozen
	// prefix under its release floors — a compiled Program's plain
	// execution, or the last splice's Spliced.Exec.
	Exec *sim.Execution
	// Cut is the instant of the last event spliced through, 0 before the
	// first: the Program's frozen prefix is what started before it.
	Cut int64
}

// Ran is the one cut rule: whether instruction i of the chain's Program
// had run by instant at, with the workers in fail dying at at. It had if
// it started before the chain's cut — the frozen prefix, since every
// re-planned instruction starts at or after its floor and every floor at
// or after the cut — or started before at and, on a dying worker, also
// ended by then: a victim's in-flight work dies with it. A cut is thus a
// projection of the timeline, never a second walk: everything that
// started by at on a live worker had every producer end by its start.
func (c *Chain) Ran(i int, at int64, fail []schedule.Worker) bool {
	s := c.Exec.Start[i]
	switch {
	case s < 0 || s >= max(at, c.Cut):
		return false
	case s < c.Cut || c.Exec.End[i] <= at:
		return true
	}
	return !slices.Contains(fail, c.Exec.Program.Op(i).Worker())
}

// project writes the chain's cut at instant at, the workers in fail dying
// there, into start and end — each instruction's span if it ran, -1 if not
// — and returns how many ran and when the last of them ended.
func (c *Chain) project(start, end []int64, at int64, fail []schedule.Worker) (ran int, makespan int64) {
	for i := range start {
		if !c.Ran(i, at, fail) {
			start[i], end[i] = -1, -1
			continue
		}
		start[i], end[i] = c.Exec.Start[i], c.Exec.End[i]
		ran, makespan = ran+1, max(makespan, end[i])
	}
	return ran, makespan
}

// Project returns the chain's cut at instant at, the workers in fail dying
// there, as the Execution a cut walk of the Program in flight returns:
// what ran, what a dead worker lost and what waits on it or on the cut.
func (c *Chain) Project(at int64, fail []schedule.Worker) *sim.Execution {
	p := c.Exec.Program
	n := len(p.Instrs)
	spans := make([]int64, 2*n)
	x := &sim.Execution{Program: p, Start: spans[:n:n], End: spans[n:]}
	x.Completed, x.Makespan = c.project(x.Start, x.End, at, fail)
	// A victim died if the first instruction it did not run had started by
	// the cut; otherwise the cut froze it first.
	dead := make([]bool, p.Shape.DP*p.Shape.PP)
	for _, w := range fail {
		for _, id := range p.Stream(w) {
			if x.End[id] < 0 {
				dead[p.Shape.WorkerIndex(w)] = c.Exec.Start[id] < at
				break
			}
		}
	}
	x.Classify(func(wi int) bool { return dead[wi] })
	return x
}

// Advance splices the Program in flight around a membership event at
// instant at — the workers in fail dying, those in rejoin restored, the
// re-planned work floored by release (see SpliceInput) — and steps the
// chain onto the spliced Program and its timeline. The cut resumes under
// the floors already in the chain's timeline; release is only the new
// re-plan's. The projected spans go to Splice from a pool: it keeps none.
func (c *Chain) Advance(at int64, fail, rejoin []schedule.Worker, release map[schedule.Worker]int64) (*Spliced, error) {
	if at < c.Cut {
		return nil, fmt.Errorf("replay: cut %d precedes the chain's last cut %d", at, c.Cut)
	}
	p := c.Exec.Program
	n := len(p.Instrs)
	buf := spanPool.Get().(*[]int64)
	defer spanPool.Put(buf)
	if cap(*buf) < 2*n {
		*buf = make([]int64, 2*n)
	}
	start, end := (*buf)[:n:n], (*buf)[n:2*n]
	c.project(start, end, at, fail)
	spl, err := Splice(SpliceInput{Prog: p, Starts: start, Ends: end, Cut: at, Fail: fail, Rejoin: rejoin, Release: release})
	if err != nil {
		return nil, err
	}
	c.Exec, c.Cut = spl.Exec, at
	return spl, nil
}

var spanPool = sync.Pool{New: func() any { return new([]int64) }}

// AdvanceLive is Advance with no release floors plus the one guard that
// makes a splice interpretable by the live runtime: no stage's optimizer
// step may straddle the cut. A group the cut splits is not durable, so the
// splice may re-execute its lost work on a peer whose replica already
// stepped — with post-step parameters, which no longer reproduce the
// fault-free gradients. Kills after a stage's step completed are fine: the
// stepped group stays frozen in the prefix, and the live runtime's
// step-epoch stamp keeps any re-delivered step idempotent. A rejected
// event leaves the chain where it was.
func (c *Chain) AdvanceLive(at int64, fail, rejoin []schedule.Worker) (*Spliced, error) {
	next := *c
	spl, err := next.Advance(at, fail, rejoin, nil)
	if err == nil && spl.splitStage >= 0 {
		err = fmt.Errorf("replay: cut %d splits stage %d's optimizer across the event; splice before the stage's all-reduce", at, spl.splitStage)
	}
	if err != nil {
		return nil, err
	}
	*c = next
	return spl, nil
}

// LiveEvent describes a mid-iteration membership event against a Program
// the live runtime is interpreting: the Program, the event instant and the
// workers failing and re-joining there (see SpliceInput).
type LiveEvent struct {
	// Prog is the Program in flight when the event arrived.
	Prog *schedule.Program
	// Cut is the event instant on the program's logical clock (>= 1).
	Cut int64
	// Fail lists live workers killed at Cut; Rejoin lists failed workers
	// restored at Cut (see SpliceInput).
	Fail, Rejoin []schedule.Worker
}

// LiveSplice splices a Program at one event the way the live runtime does:
// a chain started from the Program's plain timeline (sim.Plain, walked once
// per Program), advanced once by AdvanceLive. Before interpreting the suffix, live workers must discard
// the materialized effect (the activation stash of a forward) of every
// Spliced.LostIDs instruction they executed, so the re-executed suffix can
// regenerate it. It is a pure function of its input: it consults the DES,
// never live state.
func LiveSplice(in LiveEvent) (*Spliced, error) {
	if in.Prog == nil {
		return nil, fmt.Errorf("replay: cannot live-splice a nil program")
	}
	if in.Cut < 1 {
		return nil, fmt.Errorf("replay: live-splice cut slot %d must be >= 1", in.Cut)
	}
	ex, err := sim.Plain(in.Prog)
	if err != nil {
		return nil, err
	}
	c := Chain{Exec: ex}
	return c.AdvanceLive(in.Cut, in.Fail, in.Rejoin)
}
