// Package dtrain is the live distributed-training runtime of the
// reproduction: a DP×PP grid of executor goroutines trains a real (small)
// model by interpreting compiled Programs, which lets the tests prove the
// paper's central invariant — adapted execution computes exactly the same
// gradients as fault-free execution.
//
// The Runtime is the in-process counterpart of the paper's Coordinator +
// Executors (§4.1). The coordinator half fetches compiled Programs for the
// current failure set from the plan service (internal/engine) and owns
// failure handling, validation and rollback; the
// executor half runs one goroutine per live worker, interpreting its
// Program instruction stream and blocking only on the messages it
// consumes. Activations, input gradients and weight-gradient contributions
// move through a router whose dense per-iteration slot table, indexed by
// each message's own (kind, iteration, stage, micro-batch) coordinates, is
// send stash, transport and WeightGradStore at once. A stage's optimizers
// park on their group's all-reduce barrier — a count of the group's empty
// contribution slots — and the first peer past it reduces the group once,
// in (home, mb) order, for every peer; every dependency edge of a Program
// is carried by a message, that barrier or stream order, so nothing else
// synchronises the workers. Per-iteration tensors are carved from pooled
// per-stage arenas recycled at the iteration boundary. Each instruction's
// logical slot span is read off the discrete-event timeline of the same
// Program — its plain timeline, which the Program memoizes (sim.Plain), or
// a splice's — so the executed timeline is, by construction, the
// discrete-event simulator's prediction.
//
// It implements the paper's §5 mechanisms — ReRouteAct / ReRouteGrad
// (micro-batch rerouting to data-parallel peers), the WeightGradStore
// (deferred weight gradients, held in the router's contribution slots),
// per-stage optimizer steps with post-step validation and rollback.
// Failures reach it as events — a trace replay's or a seeded Chaos kill —
// never from a detector of its own. A heterogeneous cost model
// (Config.CostModel) is fixed when the runtime is built.
//
// Runtime.RunIteration(events ...CascadeEvent) is the one iteration
// driver: mid-iteration kills, re-joins and cascades are passed as events,
// and the fault-free iteration is the zero-event case. It plans the whole
// splice chain first (a replay.Chain advanced once per event, as the trace
// replayer advances its own), rejecting an un-spliceable list before
// anything runs; then, per event, executes what the chain's timeline had
// run by the cut (replay.Chain.Ran), lands the event, and interprets the
// re-planned suffix. Chaos draws its kill instants from the same chain.
// A splice is a pure function of the in-flight Program — which carries the
// cost table its schedule was solved under — and the event, so every
// runtime derives it itself, fetch-only executors included: nothing is
// published to or fetched from the plan store for a kill. An event may
// carry the digest of its sender's splice (CascadeEvent.Digest); a runtime
// whose own derivation differs refuses the iteration with
// ErrForeignProgram.
package dtrain
