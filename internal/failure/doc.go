// Package failure models the failure workloads of the paper's evaluation
// (§6): fixed-frequency monotonic failure schedules (Table 1), Poisson
// failure processes parameterized by MTBF — independent per-machine
// processes with stable machine identities (PoissonMachines) — and
// availability traces with failures and re-joins (the GCP trace of Fig 9a).
//
// A Trace is a timeline of availability Steps. Beyond the count, each step
// can name the machines that changed: a machine identity is a flat index
// in [0, Total), stable across the whole trace, so a machine that fails
// and later recovers is the same machine both times. Generators emit
// identities directly; hand-built traces may omit them, and Identify (or
// Windows, which calls it) derives the canonical assignment — the
// highest-numbered live machine fails first, the most recently failed
// machine re-joins first — so every consumer sees a fully identified
// timeline either way.
//
// Trace.Windows flattens a trace into the membership intervals a
// trace-driven replayer walks: each Window carries the interval, the
// availability, and the identities of the machines that failed or
// re-joined at its start. internal/replay consumes these identities
// directly to decide which workers to splice out of or back into an
// in-flight iteration; there is no victim-selection heuristic downstream
// of this package.
package failure
