// Package replay is the trace-driven replayer: the layer between the plan
// service (internal/engine) and the executors that chains compiled Program
// executions across an entire availability trace, the way a pipeline
// runtime must re-form the pipeline across membership changes.
//
// Two pieces make it up:
//
//   - Splice takes an in-flight Program plus the executed spans at a
//     membership-event instant and produces a new, fully validated Program
//     covering the same iteration: the executed prefix is frozen at its
//     recorded times, work whose provenance died with a failed worker is
//     re-executed on live peers, the unexecuted suffix is re-planned
//     against the new worker set (re-routing whole micro-batch triples,
//     adding the optimizer step of a re-joining worker), and the spliced
//     artifact passes both schedule.Validate and Program.Validate.
//     Re-planned work is timed by the in-flight Program's cost table
//     (Program.Cost), which the spliced Program carries on, so a splice is
//     a pure function of the Program and the event: any process holding
//     the Program derives the same bytes. There is one rule: a stage whose optimizer step fully completed
//     before the cut is durable and stays frozen, victim included. And
//     one call site: cutAndSplice runs the DES up to the event instant
//     and splices; Replay calls it directly and the live interpreter
//     (dtrain.Runtime.RunIteration) reaches it through LiveSplice, which
//     adds only the optimizer-straddle guard a live all-reduce needs.
//
//     Splice keeps its books on the schedule package's dense op index —
//     slices indexed by triple, stage group and worker, one slab of
//     nodes, pooled across the events of a replay or a splice chain — so
//     one event allocates little beyond the artifact it returns, while
//     every check above still runs on every splice. The map-keyed
//     implementation it replaced lives on as the oracle of
//     TestSpliceMatchesReference and FuzzSplice, which hold the two
//     bit-identical.
//
//   - Replay walks a failure.Trace window by window (Trace.Windows),
//     fetches the compiled Program for each membership state from the
//     engine, executes it on the DES virtual clock, and on a mid-iteration
//     failure or re-join splices the in-flight Program and resumes without
//     waiting for the iteration boundary. Reconfiguration stalls, catch-up
//     bubbles and re-join warm-up all emerge from lost and re-planned
//     instructions — there is no analytic stall formula anywhere in the
//     path.
package replay
