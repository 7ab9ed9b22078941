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
//     fetch-only Client pulls the executable artifact directly. Both are
//     one binary framing of length-prefixed varint arrays (wire.go) read
//     by a cursor that trusts nothing: a decoded artifact is executable
//     or the decode fails;
//   - Plan / PlanConcrete are get-or-solve with request coalescing:
//     concurrent callers asking for the same (job fingerprint,
//     techniques, failure count) trigger exactly one solve;
//   - ScheduleFor is the Coordinator's failure-handling fetch path
//     (§4.1): exact plan from cache/store, then Best(n) fallback, then
//     on-demand solve on miss; ProgramFor serves the compiled Program
//     for the same path, cached alongside the plan.
//
// All caches are lock-striped (64 hash shards keyed by plan fingerprint
// or schedule identity) and invalidation is epoch-based: a
// stripe is only ever locked for the keys it owns, and InvalidateCache
// bumps one atomic instead of sweeping maps under a global mutex.
//
// The engine also carries the heterogeneous cost model
// (profile.CostModel): per-(stage, op, worker) durations enter the plan
// fingerprint, so MarkStraggler — the Coordinator's response to a
// gray-failure (slow-but-alive worker) detection — moves every plan key
// into a fresh namespace and the next fetch transparently re-solves,
// timing the slow worker honestly and routing micro-batches away from it.
package engine
