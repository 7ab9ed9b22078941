// Package replay is the trace-driven replayer: the layer between the plan
// service (internal/engine) and the executors that chains compiled Program
// executions across an entire availability trace, the way a pipeline
// runtime must re-form the pipeline across membership changes.
//
// Two pieces make it up:
//
//   - Splice takes an in-flight Program plus the executed spans at a
//     membership-event instant and produces a new, executable Program
//     covering the same iteration: the executed prefix is frozen at its
//     recorded times, work whose provenance died with a failed worker is
//     re-executed on live peers, and the unexecuted suffix is re-planned
//     against the new worker set (re-routing whole micro-batch triples,
//     adding the optimizer step of a re-joining worker). The Program is
//     built through schedule.ProgramBuilder, proven to run by the walk
//     that times it from the kept prefix (Spliced.Exec) and numbered in that
//     timeline's order, the order a later splice of the same iteration
//     reads it in. Re-planned work is timed by the in-flight
//     Program's cost table (Program.Cost), which the spliced Program
//     carries on, so a splice is a pure function of the Program and the
//     event: any process holding the Program derives the same bytes. There
//     is one rule: a stage whose optimizer step fully completed before the
//     cut is durable and stays frozen, victim included. And one call site:
//     a Chain — the Program in flight, its timeline and the last cut —
//     reads each cut off its timeline by one rule (Chain.Ran), splices and
//     steps onto the spliced Program. Replay, the live interpreter
//     (dtrain.Runtime.RunIteration) and its chaos planner all advance one;
//     the live side through AdvanceLive, which adds only the
//     optimizer-straddle guard a live all-reduce needs.
//
//     Splice keeps its books on the schedule package's dense op index —
//     slices indexed by triple, stage group and worker, one slab of
//     nodes, each holding its op as the flat IR does (type, triple or
//     stage group, executor: Program.At in, ProgramBuilder.InstrAt out),
//     pooled across the events of a replay or a splice chain — and
//     numbers the spliced Program by a radix sort of its (start, worker)
//     keys, so one event allocates little beyond the artifact it returns.
//     The numbering is its second half: Replay runs the first alone —
//     every check, the walk, Exec and the counters, the Program left in
//     run order — and numbers a splice only when the next event lands in
//     the same iteration, before the chain is cut again. The
//     map-keyed implementation it replaced lives on as the oracle of
//     TestSpliceMatchesReference and FuzzSplice.
//
//   - Replay walks a failure.Trace window by window (Trace.Windows),
//     fetches the compiled Program for each membership state from the
//     engine, runs it on the DES virtual clock — its plain timeline, which
//     the Program memoizes (sim.Plain), so a Program is walked once
//     however many replays start from it — and on a mid-iteration
//     failure or re-join splices the in-flight Program and resumes without
//     waiting for the iteration boundary. Every window's failed set is
//     derived once, up front, and the engine's worker pool
//     (Engine.Prefetch) fetches their Programs, claiming windows in order,
//     while the replay runs, so cold solves and compiles run side by side
//     and overlap the splices; the engine serves one Program per failed
//     set however the fetches interleave, so the result does not depend on
//     the prefetch. Reconfiguration stalls, catch-up
//     bubbles and re-join warm-up all emerge from lost and re-planned
//     instructions — there is no analytic stall formula anywhere in the
//     path.
package replay
