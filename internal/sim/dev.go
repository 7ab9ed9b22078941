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
	// flight run to completion. Unexecuted instructions are classified
	// Blocked but do not make the execution a deadlock. A mid-iteration
	// splice (internal/replay) projects its cut off a timeline instead;
	// this walk is the projection's reference.
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

// execScratch is ExecuteProgram's working set, pooled so that an execution
// allocates only what its Execution keeps.
type execScratch struct {
	walk   schedule.Walk
	dur    []int64   // per instruction: its duration under the options
	scale  []float64 // per WorkerIndex: its Scale factor, 0 for none
	failAt []int64   // per WorkerIndex: its FailAt instant
}

var execPool = sync.Pool{New: func() any { return new(execScratch) }}

// ExecuteProgram runs the program's instruction streams in virtual time on
// a schedule.Walk — the rule Program.Validate proves every Program runs to
// completion under: each worker executes its stream in order, every
// instruction starting as soon as its worker is free and its dependency
// edges are satisfied (producers finished, plus communication latency on
// cross-stage edges) — and a gated optimizer once its stage group's
// barrier drains, at the group's latest contribution end. This is exactly
// the recurrence the live runtime's interpreter follows, so on a healthy
// fleet the predicted timeline and the runtime's logical timeline agree by
// construction. The options become the walk's Timing: the durations, the
// cut and the death instants; the frozen prefix is installed and the
// release floors raise the workers' clocks before it runs.
//
// A program whose instructions cannot all complete without any injected
// failure is reported as a deadlock error.
func ExecuteProgram(p *schedule.Program, opt ProgramOptions) (*Execution, error) {
	if p == nil {
		return nil, fmt.Errorf("sim: cannot execute a nil program")
	}
	n, sh, nw := len(p.Instrs), p.Shape, p.Shape.DP*p.Shape.PP
	ex := &Execution{Program: p, Start: make([]int64, n), End: make([]int64, n)}
	sc := execPool.Get().(*execScratch)
	defer execPool.Put(sc)
	t := schedule.Timing{Lat: p.Durations, Cut: opt.CutAt}
	if opt.Durations != nil {
		t.Lat = *opt.Durations
	}
	if opt.Durations != nil || opt.OpDuration != nil || len(opt.Scale) > 0 {
		t.Dur = sc.durations(p, opt)
	}
	if len(opt.FailAt) > 0 {
		sc.failAt = filled(sc.failAt, nw, math.MaxInt64)
		for w, at := range opt.FailAt {
			if wi := sh.WorkerIndex(w); wi >= 0 {
				sc.failAt[wi] = at
			}
		}
		t.FailAt = sc.failAt
	}
	walk := &sc.walk
	defer walk.Clear()
	walk.Reset(p, t, ex.Start, ex.End)

	// Install the pre-executed prefix: spans recorded in instruction-ID
	// order, streams advanced past it, worker clocks floored at its
	// completion times and then at their release floors.
	for id, end := range opt.Done {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("sim: done instruction %d outside [0,%d)", id, n)
		}
		walk.Install(id, end)
	}
	placed := 0
	for _, w := range p.Workers() {
		wi := sh.WorkerIndex(w)
		placed += walk.Skip(wi)
		if r, ok := opt.ReleaseAt[w]; ok {
			walk.Release(wi, r)
		}
	}
	if placed != len(opt.Done) {
		return nil, fmt.Errorf("sim: done set is not a union of stream prefixes (%d of %d instructions at stream heads)", placed, len(opt.Done))
	}

	walk.Run()
	ex.Completed, ex.Makespan = walk.Ended(), walk.Makespan()
	if ex.Completed < n {
		ex.Classify(walk.Dead)
	}
	if opt.Recorder != nil && opt.Recorder.Enabled() {
		label := opt.TraceLabel
		if label == "" {
			label = "sim"
		}
		frozen := func(id int) bool { _, ok := opt.Done[id]; return ok }
		ex.Record(opt.Recorder, label, t.Lat, frozen, opt.FailAt, opt.CutAt)
	}
	if len(opt.FailAt) == 0 && opt.CutAt <= 0 && ex.Completed != n {
		return ex, fmt.Errorf("sim: program deadlocked with %d of %d instructions unexecuted", n-ex.Completed, n)
	}
	return ex, nil
}

// Classify fills Lost and Blocked, each in instruction-ID order, with the
// instructions that never ran: lost on a worker that dead reports (by
// WorkerIndex) died, blocked on any other.
func (x *Execution) Classify(dead func(wi int) bool) {
	lost, blocked := 0, 0
	for id, e := range x.End {
		if wi, _, _ := x.Program.OpIndex(id); e < 0 && dead(wi) {
			lost++
		} else if e < 0 {
			blocked++
		}
	}
	x.Lost, x.Blocked = nil, nil
	if lost > 0 {
		x.Lost = make([]int, 0, lost)
	}
	if blocked > 0 {
		x.Blocked = make([]int, 0, blocked)
	}
	for id, e := range x.End {
		if wi, _, _ := x.Program.OpIndex(id); e < 0 && dead(wi) {
			x.Lost = append(x.Lost, id)
		} else if e < 0 {
			x.Blocked = append(x.Blocked, id)
		}
	}
}

// Span is instruction id's span in x as a recorder shows it. A frozen span
// is scheduled at its start; any other at its producers' latest end plus
// each edge's latency under lat — a gated optimizer's producers being its
// stage group's contributions — the instant the walk let it start.
func (x *Execution) Span(id int, lat schedule.Durations, frozen bool) obs.Span {
	p := x.Program
	sp := obs.Span{Instr: id, Op: p.Op(id), Deps: p.Producers(id),
		Sched: x.Start[id], Start: x.Start[id], End: x.End[id],
		Modeled: p.DurOf(id), Frozen: frozen}
	if !frozen {
		sp.Sched = 0
		for _, d := range sp.Deps {
			sp.Sched = max(sp.Sched, x.End[d.From]+lat.EdgeLatency(d.Kind))
		}
	}
	return sp
}

// Record records x into rec as one trace segment named label: the frozen
// instructions' spans in ID order, the span of every other instruction that
// ran, a kill event per worker that died with work left, at its failAt
// instant, and — for a cut execution (cut > 0) — the cut event with what
// completed, was lost and was blocked. lat is what x charged its edges.
func (x *Execution) Record(rec obs.Recorder, label string, lat schedule.Durations, frozen func(id int) bool, failAt map[schedule.Worker]int64, cut int64) {
	p := x.Program
	rec.BeginProgram(label, p)
	for id := range p.Instrs {
		if frozen(id) {
			rec.Span(x.Span(id, lat, true))
		}
	}
	for id := range p.Instrs {
		if x.End[id] >= 0 && !frozen(id) {
			rec.Span(x.Span(id, lat, false))
		}
	}
	for _, w := range p.Workers() { // a worker that died lost all it did not run
		for _, id := range p.Stream(w) {
			if x.End[id] >= 0 {
				continue
			}
			if _, died := slices.BinarySearch(x.Lost, int(id)); died {
				rec.Event(obs.Event{Kind: obs.EvKill, At: failAt[w], Iter: p.Op(int(id)).Iter, Worker: w, HasWorker: true})
			}
			break
		}
	}
	if cut > 0 {
		rec.Event(obs.Event{
			Kind: obs.EvCut, At: cut, Iter: -1,
			Attrs: []obs.Attr{
				{Key: "completed", Val: int64(x.Completed)},
				{Key: "lost", Val: int64(len(x.Lost))},
				{Key: "blocked", Val: int64(len(x.Blocked))},
			},
		})
	}
}

// durations tabulates every instruction's duration under the options: the
// stamped (cost-model) duration or the program's own homogeneous set,
// unless Durations overrides it, passed through OpDuration and scaled by
// its worker's Scale factor.
func (sc *execScratch) durations(p *schedule.Program, opt ProgramOptions) []int64 {
	sh := p.Shape
	sc.scale = filled(sc.scale, sh.DP*sh.PP, 0)
	for w, s := range opt.Scale {
		if wi := sh.WorkerIndex(w); wi >= 0 && s > 0 {
			sc.scale[wi] = s
		}
	}
	sc.dur = filled(sc.dur, len(p.Instrs), 0)
	for id := range sc.dur {
		d := p.DurOf(id)
		if opt.Durations != nil {
			d = opt.Durations.Of(p.Type(id))
		}
		if opt.OpDuration != nil {
			d = opt.OpDuration(p.Op(id), d)
		}
		if wi, _, _ := p.OpIndex(id); sc.scale[wi] > 0 {
			d = int64(math.Round(float64(d) * sc.scale[wi]))
		}
		sc.dur[id] = d
	}
	return sc.dur
}

// filled returns s resized to n elements, every one set to v, reallocating
// only when its capacity is too small.
func filled[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
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
