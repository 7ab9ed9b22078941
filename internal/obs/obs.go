package obs

import (
	"fmt"
	"time"

	"recycle/internal/schedule"
)

// Span is one executed instruction: who ran what, when it was released by
// its dependencies, when it actually ran, and how the modeled duration
// compares to the measured one.
type Span struct {
	// Instr is the instruction's ID within the Program its segment is
	// bound to.
	Instr int
	// Op carries the full instruction identity: stage, micro-batch triple
	// (MB, Home), executing pipeline, op kind and iteration.
	Op schedule.Op
	// Deps are the dependency edges that released the instruction
	// (schedule.Program.Producers): a gated optimizer's stage
	// contributions appear as all-reduce edges. The slice may be shared
	// with the Program — recorders must treat it as read-only.
	Deps []schedule.Dep
	// Sched is the logical time the instruction's dependencies released it
	// (max producer end + edge latency); Start and End are the executed
	// logical span. Start > Sched means the worker was the constraint, not
	// the dependencies.
	Sched, Start, End int64
	// Modeled is the duration the plan was solved with (Program.DurOf);
	// End-Start is what the execution actually charged. The two differ
	// under injected straggler scales or duration overrides.
	Modeled int64
	// Actual is the measured wall-clock compute time of the instruction in
	// the live runtime, shown next to Modeled. Zero in virtual-time
	// executions.
	Actual time.Duration
	// Frozen marks a pre-executed prefix span installed into a spliced
	// Program (recorded at its frozen completion time, not re-executed).
	Frozen bool
}

// Worker returns the executing worker.
func (s Span) Worker() schedule.Worker { return s.Op.Worker() }

// Dur returns the executed logical duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// EventKind classifies a lifecycle event.
type EventKind int8

const (
	// EvIterStart and EvIterEnd bracket one interpreted iteration.
	EvIterStart EventKind = iota
	EvIterEnd
	// EvRollback marks an iteration that failed post-step validation and
	// was rolled back.
	EvRollback
	// EvKill marks a worker dying mid-iteration; EvRejoin a repaired
	// worker restored from a live peer.
	EvKill
	EvRejoin
	// EvSplice marks a mid-iteration Program splice (replay.LiveSplice).
	EvSplice
	// EvResend marks a payload replayed from the router's send stash — a
	// consumer re-requesting a tensor whose original copy was consumed by
	// an executor that has since died or been invalidated.
	EvResend
	// EvCut marks the virtual clock freezing at a splice instant (DES).
	EvCut
	// EvMembership is a replayed trace membership event (fail/rejoin/swap
	// windows of internal/replay).
	EvMembership
	// Plan-service lifecycle: a Coordinator fetch, an on-demand solve, a
	// background warm, and a spliced Program replicated through the store.
	EvPlanFetch
	EvPlanSolve
	EvWarm
	EvPublish
	// EvStepNoop marks a re-delivered optimizer step skipped by the
	// step-epoch stamp: the stage's parameters already carry the target
	// epoch, so the re-execution is an idempotent no-op.
	EvStepNoop
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvIterStart:
		return "iter-start"
	case EvIterEnd:
		return "iter-end"
	case EvRollback:
		return "rollback"
	case EvKill:
		return "kill"
	case EvRejoin:
		return "rejoin"
	case EvSplice:
		return "splice"
	case EvResend:
		return "resend"
	case EvCut:
		return "cut"
	case EvMembership:
		return "membership"
	case EvPlanFetch:
		return "plan-fetch"
	case EvPlanSolve:
		return "plan-solve"
	case EvWarm:
		return "warm"
	case EvPublish:
		return "publish"
	case EvStepNoop:
		return "step-noop"
	default:
		return fmt.Sprintf("EventKind(%d)", int8(k))
	}
}

// Attr is one structured key/value attribute of an Event, kept ordered so
// renderings are deterministic.
type Attr struct {
	Key string
	Val int64
}

// Event is one lifecycle record: something that happened to the run as a
// whole rather than to a single instruction.
type Event struct {
	Kind EventKind
	// At is the logical slot time within the current segment; -1 when the
	// event has no logical-clock coordinate (engine-side events).
	At int64
	// Wall is the wall-clock instant; zero in virtual-time executions.
	Wall time.Time
	// Iter is the training iteration the event belongs to (-1 if none).
	Iter int
	// Worker is the affected worker when HasWorker is set.
	Worker    schedule.Worker
	HasWorker bool
	// Detail is a short free-form annotation (a splice event ID, a plan
	// key).
	Detail string
	// Attrs carry the event's structured counters.
	Attrs []Attr
}

// Recorder is the sink both Program executors emit into. Implementations
// must be safe for concurrent use: the live runtime records from one
// goroutine per worker. The disabled path must stay allocation-free —
// callers guard Span construction behind Enabled().
type Recorder interface {
	// Enabled reports whether recording is on; callers skip building
	// records entirely when it is not.
	Enabled() bool
	// BeginProgram opens a new segment: every following Span belongs to
	// one execution of p (an iteration, or one phase of a spliced one).
	BeginProgram(label string, p *schedule.Program)
	// Span records one executed instruction into the current segment.
	Span(s Span)
	// Event records one lifecycle event.
	Event(e Event)
}

// Nop is the default recorder: disabled, records nothing, costs nothing.
type Nop struct{}

// Enabled implements Recorder.
func (Nop) Enabled() bool { return false }

// BeginProgram implements Recorder.
func (Nop) BeginProgram(string, *schedule.Program) {}

// Span implements Recorder.
func (Nop) Span(Span) {}

// Event implements Recorder.
func (Nop) Event(Event) {}

// multi fans every record out to several live recorders.
type multi []Recorder

func (m multi) Enabled() bool { return true }
func (m multi) BeginProgram(label string, p *schedule.Program) {
	for _, r := range m {
		r.BeginProgram(label, p)
	}
}
func (m multi) Span(s Span) {
	for _, r := range m {
		r.Span(s)
	}
}
func (m multi) Event(e Event) {
	for _, r := range m {
		r.Event(e)
	}
}

// Multi combines recorders: records fan out to every enabled one. Nil and
// disabled recorders are dropped; with none left the result is Nop, and a
// single survivor is returned unwrapped.
func Multi(rs ...Recorder) Recorder {
	live := make(multi, 0, len(rs))
	for _, r := range rs {
		if r != nil && r.Enabled() {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return live
}

// FindFlight unwraps a recorder down to its FlightRecorder, if it is one
// or contains one via Multi — how a failure path locates the black box to
// dump.
func FindFlight(r Recorder) *FlightRecorder {
	switch v := r.(type) {
	case *FlightRecorder:
		return v
	case multi:
		for _, sub := range v {
			if f := FindFlight(sub); f != nil {
				return f
			}
		}
	}
	return nil
}

// FindTrace unwraps a recorder down to its buffering Trace, if it is one
// or contains one via Multi — how metrics folding locates the recorded
// span and event counters.
func FindTrace(r Recorder) *Trace {
	switch v := r.(type) {
	case *Trace:
		return v
	case multi:
		for _, sub := range v {
			if t := FindTrace(sub); t != nil {
				return t
			}
		}
	}
	return nil
}
