// Package obs is the unified execution-tracing subsystem shared by both
// Program executors: the live runtime (internal/dtrain) and the
// discrete-event simulator (internal/sim) emit one Span per executed
// instruction and a stream of lifecycle Events (iteration boundaries,
// rollbacks, kills, re-joins, splices, re-sends, DES cuts, replayed
// membership changes, plan fetches, solves, warms and publishes, skipped
// re-delivered optimizer steps) into a Recorder, so one run yields one
// merged timeline regardless of which executor produced it.
//
// The package is deliberately dependency-light — it imports only
// internal/schedule and the standard library — because every layer above
// schedule (engine, sim, dtrain, replay) records into it.
//
// Recorder implementations:
//
//   - Nop: the default. Disabled; records nothing; the disabled path adds
//     no allocation per instruction (executors guard span construction
//     behind Enabled()).
//   - Trace: the buffering recorder. Spans group into Segments, one per
//     executed Program (an iteration, or one phase of a spliced
//     iteration), each bound to the Program artifact so the recorded DAG
//     keeps its dependency edges.
//   - FlightRecorder: a bounded ring of the most recent records — the
//     chaos harness's black box, dumped on failure.
//   - Multi: fans records out to several recorders (a Trace for export
//     plus a FlightRecorder for forensics).
//
// On top of a recorded Trace:
//
//   - WriteChromeTrace exports Chrome trace-event / Perfetto JSON with one
//     track per worker and flow events along Program dependency edges.
//   - CriticalPath walks the recorded DAG backwards from the last
//     completed instruction and attributes the makespan op by op; the
//     returned steps tile [0, makespan] exactly (critical-path compute +
//     waits == makespan, and per-worker busy + idle == makespan).
//   - Registry folds counter structs (engine.Metrics, runtime counters,
//     trace counters) into one versioned snapshot with expvar-style JSON
//     exposition.
package obs
