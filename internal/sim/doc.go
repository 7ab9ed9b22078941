// Package sim is the training simulator of §6.3, with two backends at two
// levels of abstraction.
//
// The scalar backend (Run) replays an availability trace against a
// fault-tolerant training system model (System) and reports instantaneous
// and average throughput, charging each system its own reconfiguration
// stalls at failure and re-join events — the baselines' rows of the
// Table 1 and Fig 9 experiments. ReCycle has no System model: its rows are
// replayed at op granularity by internal/replay, on top of the
// discrete-event backend below.
//
// The discrete-event backend (ExecuteProgram) drops below steady-state
// scalars to the op level: it executes a compiled schedule.Program — the
// same artifact the live runtime interprets — in virtual time, each
// instruction starting as soon as its worker is free and its dependency
// edges are satisfied. It owns no recurrence of its own: it times the
// Program on a schedule.Walk, the rule Program.Validate proves every
// Program runs to completion under, and its options become the walk's
// Timing, frozen prefix and release floors. Every instruction runs for
// the duration Compile stamped from the Planner's cost model; a Program is
// run under other durations — a straggler, profiled kernel latencies — by
// executing the view schedule.Program.WithCosts re-times it into.
// Mid-iteration failures are injected with FailAt, reporting lost and
// blocked instruction sets. CutAt freezes the
// clock at an event instant, Done resumes a spliced Program past its frozen
// prefix, and ReleaseAt floors re-planned work: the cut walk internal/replay
// projects off a timeline instead, kept as that projection's reference.
// ExecuteProgram walks on every call; Plain returns a Program's plain
// execution — no options — off the timeline the Program memoizes on first
// use (schedule.Program.Plain), the base every replay window, live splice
// and live iteration starts from. Execution.Record writes one execution as
// a trace segment, and Execution.Span is the one span constructor every
// executor records by.
//
// The paper validates this style of simulator against its real 32-GPU
// cluster within 5.98% (Table 2); here the simulator is the primary
// experimental substrate, and internal/dtrain's live runtime provides the
// corresponding fidelity check — exact, by construction, because both
// executors walk the same Program.
package sim
