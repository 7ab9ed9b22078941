package sim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"recycle/internal/obs"
	"recycle/internal/schedule"
)

// ProgramOptions parameterizes one virtual-time execution of a compiled
// Program — the scenario knobs the steady-state Throughput(failed) model
// cannot express.
type ProgramOptions struct {
	// Durations overrides the program's durations with a homogeneous
	// per-op-type set (nil keeps the durations the schedule was solved
	// with, including any per-instruction durations Compile stamped from a
	// heterogeneous cost model). The Table 2 experiment uses this to
	// execute a unit-slot program under profiled kernel latencies.
	Durations *schedule.Durations
	// Scale multiplies every op duration on a worker — stragglers (>1) or
	// fast spares (<1). Workers absent from the map run at 1x.
	Scale map[schedule.Worker]float64
	// OpDuration, when non-nil, decides each op's duration from the op and
	// the default that would otherwise apply — fully heterogeneous per-op
	// profiles (e.g. a slow first micro-batch, per-stage imbalance).
	OpDuration func(op schedule.Op, def int64) int64
	// FailAt kills a worker at a virtual time: instructions that would
	// still be running at (or start after) the failure instant never
	// complete, and everything depending on them is left blocked —
	// mid-iteration failure injection.
	FailAt map[schedule.Worker]int64
	// CutAt, when > 0, freezes the virtual clock at an event instant: no
	// instruction starts at or after CutAt, while instructions already in
	// flight run to completion. The completed set of a cut execution is the
	// executed prefix a mid-iteration splice (internal/replay) keeps;
	// unexecuted instructions are classified Blocked but do not make the
	// execution a deadlock.
	CutAt int64
	// Done marks instructions that already executed before this program run
	// — the frozen prefix of a spliced Program — each mapped to its
	// recorded completion time. Done instructions are never re-executed;
	// they must form a prefix of their worker's stream (spliced programs
	// order the executed prefix first by construction).
	Done map[int]int64
	// ReleaseAt floors a worker's earliest post-prefix start time: the
	// splice instant plus any detection or parameter-copy delay. Workers
	// absent from the map are released as soon as their stream and
	// dependencies allow.
	ReleaseAt map[schedule.Worker]int64
	// Recorder, when enabled, receives one span per executed instruction
	// (frozen spans for the Done prefix) and the cut/kill lifecycle events
	// of this execution. TraceLabel names the opened segment ("sim" when
	// empty). A nil or disabled recorder costs nothing.
	Recorder   obs.Recorder
	TraceLabel string
}

// Execution is the outcome of executing one Program in virtual time.
type Execution struct {
	Program *schedule.Program
	// Start and End hold each instruction's virtual-time span, indexed by
	// instruction ID; -1 marks instructions that never ran.
	Start, End []int64
	// Makespan is the completion time of the last finished instruction.
	Makespan int64
	// Completed counts finished instructions.
	Completed int
	// Lost holds instructions that never ran because their worker died.
	Lost []int
	// Blocked holds instructions on live workers whose dependencies were
	// never satisfied (they transitively depend on lost work).
	Blocked []int
}

// StepEpochs returns, per worker, the number of optimizer instructions
// that completed in this execution — the DES-side reading of the live
// runtime's step-epoch stamp. On a cut execution it counts the steps that
// became durable before the event; comparing it against the live stages'
// epoch deltas is the epoch half of the live-vs-DES agreement check.
func (x *Execution) StepEpochs() map[schedule.Worker]int {
	out := make(map[schedule.Worker]int)
	for i := range x.Program.Instrs {
		if op := x.Program.Op(i); op.Type == schedule.Optimizer && x.End[i] >= 0 {
			out[op.Worker()]++
		}
	}
	return out
}

// arGroup is the DES's reading of one stage group's all-reduce barrier:
// contributions not yet finished, and the latest end among those that are.
type arGroup struct {
	pending int32
	end     int64
}

// Classification marks of an instruction that never ran; 0 marks one that
// did.
const (
	lostMark uint8 = 1 + iota
	blockedMark
)

var markPool = sync.Pool{New: func() any { return new([]uint8) }}

// ExecuteProgram runs the program's instruction streams in virtual time:
// each worker executes its stream in order, every instruction starting as
// soon as its worker is free and its dependency edges are satisfied
// (producers finished, plus communication latency on cross-stage edges) —
// and a gated optimizer once its stage group's barrier drains, at the
// group's latest contribution end. This is exactly the recurrence the live
// runtime's interpreter follows, so on a healthy fleet the predicted
// timeline and the runtime's logical timeline agree by construction.
//
// A program whose instructions cannot all complete without any injected
// failure is reported as a deadlock error.
func ExecuteProgram(p *schedule.Program, opt ProgramOptions) (*Execution, error) {
	if p == nil {
		return nil, fmt.Errorf("sim: cannot execute a nil program")
	}
	durs := p.Durations
	if opt.Durations != nil {
		durs = *opt.Durations
	}
	durOf := func(w schedule.Worker, id int) int64 {
		var d int64
		if opt.Durations != nil {
			d = durs.Of(p.Type(id))
		} else {
			d = p.DurOf(id) // stamped (cost-model) duration, or the program's own homogeneous set
		}
		if opt.OpDuration != nil {
			d = opt.OpDuration(p.Op(id), d)
		}
		if s, ok := opt.Scale[w]; ok && s > 0 {
			d = int64(math.Round(float64(d) * s))
		}
		if d < 0 {
			d = 0
		}
		return d
	}

	tracing := opt.Recorder != nil && opt.Recorder.Enabled()
	if tracing {
		label := opt.TraceLabel
		if label == "" {
			label = "sim"
		}
		opt.Recorder.BeginProgram(label, p)
	}

	workers := p.Workers()
	n := len(p.Instrs)
	ex := &Execution{Program: p, Start: make([]int64, n), End: make([]int64, n)}
	for i := 0; i < n; i++ {
		ex.Start[i], ex.End[i] = -1, -1
	}
	// Per-worker state lives in slices indexed by the worker's position in
	// p.Workers(); the option maps are consulted once per worker.
	type lane struct {
		stream  []int32
		pos     int   // next unexecuted stream position
		free    int64 // earliest next start
		failAt  int64 // FailAt instant, when mayFail
		mayFail bool
		dead    bool
	}
	lanes := make([]lane, len(workers))
	for wi, w := range workers {
		ln := &lanes[wi]
		ln.stream = p.Stream(w)
		ln.failAt, ln.mayFail = opt.FailAt[w]
	}
	// The all-reduce barrier, one counter per stage group: a finished
	// contribution decrements its group and raises its latest end.
	bar := &p.Barrier
	groups := make([]arGroup, max(len(bar.Off)-1, 0))
	for g := range groups {
		groups[g].pending = int32(len(bar.Group(g)))
	}
	group := func(id int) int {
		if _, g, _ := p.OpIndex(id); g < len(groups) {
			return g
		}
		return -1
	}
	contributed := func(id int, end int64) {
		if t := p.Type(id); t != schedule.B && t != schedule.BWeight {
			return
		}
		if g := group(id); g >= 0 {
			groups[g].pending--
			groups[g].end = max(groups[g].end, end)
		}
	}

	// Install the pre-executed prefix: spans recorded, streams advanced
	// past it, worker clocks floored at its completion times.
	for id, end := range opt.Done {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("sim: done instruction %d outside [0,%d)", id, n)
		}
		ex.Start[id], ex.End[id] = end-p.DurOf(id), end
		ex.Completed++
		if end > ex.Makespan {
			ex.Makespan = end
		}
		contributed(id, end)
		if tracing {
			opt.Recorder.Span(obs.Span{
				Instr: id, Op: p.Op(id), Deps: p.Producers(id),
				Sched: ex.Start[id], Start: ex.Start[id], End: end,
				Modeled: p.DurOf(id), Frozen: true,
			})
		}
	}
	placed := 0
	for wi, w := range workers {
		ln := &lanes[wi]
		for ln.pos < len(ln.stream) {
			end, done := opt.Done[int(ln.stream[ln.pos])]
			if !done {
				break
			}
			ln.free = max(ln.free, end)
			ln.pos++
		}
		placed += ln.pos
		if r, ok := opt.ReleaseAt[w]; ok && r > ln.free {
			ln.free = r
		}
	}
	if placed != len(opt.Done) {
		return nil, fmt.Errorf("sim: done set is not a union of stream prefixes (%d of %d instructions at stream heads)", placed, len(opt.Done))
	}

	// Fixed-point sweep: each pass advances every worker as far as its
	// dependencies allow. Instruction start times are a pure function of
	// producer end times and stream order, so the sweep order cannot
	// change the resulting timeline.
	for {
		progressed := false
		for wi, w := range workers {
			ln := &lanes[wi]
			if ln.dead {
				continue
			}
			for ln.pos < len(ln.stream) {
				id := int(ln.stream[ln.pos])
				ready := int64(0)
				ok := true
				for _, d := range p.Deps(id) {
					if ex.End[d.From] < 0 {
						ok = false
						break
					}
					if r := ex.End[d.From] + durs.EdgeLatency(d.Kind); r > ready {
						ready = r
					}
				}
				if ok && p.Gated(id) {
					g := group(id)
					if g < 0 {
						return nil, fmt.Errorf("sim: the barrier gates %s outside its %d groups", p.Op(id), len(groups))
					}
					if ok = groups[g].pending == 0; ok {
						ready = max(ready, groups[g].end+durs.EdgeLatency(schedule.DepAllReduce))
					}
				}
				if !ok {
					break
				}
				start := max(ln.free, ready)
				if opt.CutAt > 0 && start >= opt.CutAt {
					// The event instant arrived before this instruction could
					// start; the worker freezes here. Per-worker starts are
					// monotone, so nothing later in the stream can run either.
					break
				}
				end := start + durOf(w, id)
				if ln.mayFail && end > ln.failAt {
					// The op would still be in flight when the worker dies:
					// it and everything after it on this worker is lost.
					ln.dead = true
					if tracing {
						opt.Recorder.Event(obs.Event{
							Kind: obs.EvKill, At: ln.failAt, Iter: p.Op(id).Iter,
							Worker: w, HasWorker: true,
						})
					}
					break
				}
				ex.Start[id], ex.End[id] = start, end
				ln.free = end
				if end > ex.Makespan {
					ex.Makespan = end
				}
				contributed(id, end)
				ln.pos++
				ex.Completed++
				progressed = true
				if tracing {
					opt.Recorder.Span(obs.Span{
						Instr: id, Op: p.Op(id), Deps: p.Producers(id),
						Sched: ready, Start: start, End: end,
						Modeled: p.DurOf(id),
					})
				}
			}
		}
		if !progressed {
			break
		}
	}

	// Classify what never ran: mark each worker's unexecuted tail lost (the
	// worker died) or blocked, then collect both lists in one pass in
	// instruction-ID order.
	lost, blocked := 0, 0
	for wi := range lanes {
		if ln := &lanes[wi]; ln.dead {
			lost += len(ln.stream) - ln.pos
		} else {
			blocked += len(ln.stream) - ln.pos
		}
	}
	if lost+blocked > 0 {
		buf := markPool.Get().(*[]uint8)
		mark := slices.Grow((*buf)[:0], n)[:n]
		clear(mark)
		for wi := range lanes {
			ln := &lanes[wi]
			m := blockedMark
			if ln.dead {
				m = lostMark
			}
			for _, id := range ln.stream[ln.pos:] {
				mark[id] = m
			}
		}
		if lost > 0 {
			ex.Lost = make([]int, 0, lost)
		}
		if blocked > 0 {
			ex.Blocked = make([]int, 0, blocked)
		}
		for id, m := range mark {
			switch m {
			case lostMark:
				ex.Lost = append(ex.Lost, id)
			case blockedMark:
				ex.Blocked = append(ex.Blocked, id)
			}
		}
		*buf = mark
		markPool.Put(buf)
	}
	if tracing && opt.CutAt > 0 {
		opt.Recorder.Event(obs.Event{
			Kind: obs.EvCut, At: opt.CutAt, Iter: -1,
			Attrs: []obs.Attr{
				{Key: "completed", Val: int64(ex.Completed)},
				{Key: "lost", Val: int64(len(ex.Lost))},
				{Key: "blocked", Val: int64(len(ex.Blocked))},
			},
		})
	}
	if len(opt.FailAt) == 0 && opt.CutAt <= 0 && ex.Completed != n {
		return ex, fmt.Errorf("sim: program deadlocked with %d of %d instructions unexecuted", n-ex.Completed, n)
	}
	return ex, nil
}

// ComputeMakespan returns the completion time of the last finished
// F/B/BI/BW instruction of the given iteration — comparable to
// Schedule.ComputeMakespan and to the live runtime's executed timeline.
func (e *Execution) ComputeMakespan(iter int) int64 {
	var out int64
	for i := range e.Program.Instrs {
		op := e.Program.Op(i)
		if op.Iter != iter || op.Type == schedule.Optimizer || e.End[i] < 0 {
			continue
		}
		if e.End[i] > out {
			out = e.End[i]
		}
	}
	return out
}

// WorkerBusy returns each worker's total busy time — utilization
// numerators for timeline summaries.
func (e *Execution) WorkerBusy() map[schedule.Worker]int64 {
	busy := make(map[schedule.Worker]int64, len(e.Program.Workers()))
	for i := range e.Program.Instrs {
		if e.End[i] < 0 {
			continue
		}
		w := e.Program.Op(i).Worker()
		busy[w] += e.End[i] - e.Start[i]
	}
	return busy
}

// IterationComplete reports whether every instruction of the iteration
// finished — false after a mid-iteration failure, where the lost and
// blocked sets say what the fault took down.
func (e *Execution) IterationComplete(iter int) bool {
	for i := range e.Program.Instrs {
		if e.Program.Op(i).Iter == iter && e.End[i] < 0 {
			return false
		}
	}
	return true
}
