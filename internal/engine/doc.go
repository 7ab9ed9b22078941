// Package engine is the plan service: the single entry point every
// consumer — the live runtime Coordinator (internal/dtrain), the
// discrete-event simulator (internal/sim), the cmd/ binaries and the
// examples — uses to obtain adaptive pipeline schedules and their
// compiled Programs.
//
// It owns the full solve→plan→store→fetch lifecycle of Fig 8:
//
//   - Warm precomputes the plan for every tolerated failure count in the
//     background (fewest failures first, since those are the likeliest
//     fetches) with a bounded worker pool, while ScheduleFor keeps
//     serving — the offline phase, run as a background warming pipeline;
//   - every plan round-trips through the quorum-replicated plan store
//     (internal/planstore, standing in for the paper's etcd) via the
//     canonical versioned codec (EncodePlan/DecodePlan), so a plan
//     written by one engine survives replica failures and is readable by
//     any other engine sharing the store; compiled Programs round-trip
//     the same way (EncodeProgram/DecodeProgram), so a remote executor's
//     fetch-only Client pulls the executable artifact directly — cost
//     table included, which is all the executor needs to splice the
//     Program itself on a failure (ProgramDigest lets it check its splice
//     against the coordinator's). Both are
//     one binary framing of length-prefixed varint arrays (wire.go) read
//     by a cursor that trusts nothing: a decoded artifact is executable
//     or the decode fails;
//   - Plan / PlanConcrete are get-or-solve with request coalescing:
//     concurrent callers asking for the same (job fingerprint,
//     techniques, failure count) trigger exactly one solve;
//   - ScheduleFor is the Coordinator's failure-handling fetch path
//     (§4.1): exact plan from cache/store, then Best(n) fallback, then
//     on-demand solve on miss; ProgramFor serves the compiled Program
//     for the same path, held in the cached plan's Program slot.
//
// The Planner (§4.2: Failure Normalization plus schedule generation)
// lives here too, as the engine's immutable configuration snapshot. There
// is one cache, a get-or-solve map lock-striped into 64 hash shards keyed
// by plan key, so a stripe is only ever locked for the keys it owns. A
// plan is a pure function of its key and is solved at most once.
//
// An engine's configuration — job, stats, technique toggles, unroll
// window — is fixed at New; an engine per technique set is how the Fig 11
// ablation compares them. The one exception is the heterogeneous cost
// model (profile.CostModel): per-(stage, op, worker) durations enter the
// plan fingerprint, so MarkStraggler — the Coordinator's response to a
// gray-failure (slow-but-alive worker) detection — and Recalibrate swap
// in a new immutable configuration snapshot, every plan key moves into a
// fresh namespace, and the next fetch transparently re-solves, timing the
// slow worker honestly and routing micro-batches away from it. A compiled
// Program carries the model it was solved under as a dense cost table
// (schedule.Program.CostTable), tabulated from the same configuration
// snapshot whose fingerprint keyed its plan.
package engine
