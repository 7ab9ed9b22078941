// Package engine is the plan service: the single entry point every
// consumer — the live runtime Coordinator (internal/dtrain), the
// discrete-event simulator (internal/sim), the cmd/ binaries and the
// examples — uses to obtain adaptive pipeline schedules and their
// compiled Programs.
//
// It owns the full solve→plan→compile→store→fetch lifecycle of Fig 8:
//
//   - Warm precomputes the plan for every tolerated failure count in the
//     background (fewest failures first, since those are the likeliest
//     fetches) with a bounded worker pool, while ProgramFor keeps
//     serving — the offline phase, run as a background warming pipeline;
//   - plans live in the engine's cache; the one artifact a shared plan
//     store (Options.Store: internal/planstore, the paper's etcd; nil
//     means in-process only, nothing encoded) holds is the compiled
//     Program, in the canonical versioned codec (EncodeProgram/
//     DecodeProgram), so a remote executor's fetch-only Client, decoding
//     once per distinct bytes, pulls the executable artifact directly —
//     cost table included, which is all the executor needs to splice the
//     Program itself on a failure (ProgramDigest lets it check its splice
//     against the coordinator's). The codec is one binary framing of
//     length-prefixed varint arrays (wire.go) read by a cursor that trusts
//     nothing: a decoded artifact is executable or the decode fails;
//   - Plan / PlanConcrete are get-or-solve with request coalescing:
//     concurrent callers asking for the same (job fingerprint,
//     techniques, failure count) trigger exactly one solve, a plan is
//     installed first-wins (a class-dedup rename racing another returns
//     the one already cached), and a key's first Program fetches
//     coalesce onto one store fetch or compile, encode and put —
//     concurrent first callers of a key share one *Plan and one
//     *schedule.Program;
//   - ProgramFor is the Coordinator's failure-handling fetch path
//     (§4.1): the set's own cache entry, then the Best(n) entry of the
//     same failed set, then on-demand solve on miss; then the entry's
//     Program, from the cache, the shared store, or a compile. A set
//     whose canonical victim form differs is never solved or compiled: its
//     orbit representative is, once, and the representative's Program is
//     renamed onto the set (schedule.RenameProgram), cached in the set's
//     entry and replicated under its Program key (given a store). No
//     renamed Schedule is built on this path; PlanConcrete builds one for
//     callers that read it.
//
// The Planner (§4.2: Failure Normalization plus schedule generation)
// lives here too, as the engine's immutable configuration. There
// is one cache, a get-or-solve map lock-striped into 64 hash shards keyed
// by plan key, so a stripe is only ever locked for the keys it owns. Each
// key has one entry: its Plan (absent for a renamed set no PlanConcrete
// asked for), its Program, filled once under the entry's mutex, and
// whether both are renamed from the orbit representative's. The Best(n)
// index of Fig 8 is the entries under the normalized keys. A plan is a
// pure function of its key and is solved at most once.
//
// An engine's configuration — job, stats, technique toggles (Decoupled
// BackProp and the Staggered Optimizer; Adaptive Pipelining is always
// on), unroll window and heterogeneous cost model (profile.CostModel) —
// is fixed at New; an engine per technique set is how the Fig 11 ablation
// compares them, and an engine per cost model is how the Straggler study compares
// a plan that knows a worker is slow with one that does not. The cost
// model's per-(stage, op, worker) durations enter the plan fingerprint,
// so engines with different models never share a key. A compiled Program
// carries the model it was solved under as a dense cost table
// (schedule.Program.CostTable), tabulated from the configuration whose
// fingerprint keyed its plan.
package engine
