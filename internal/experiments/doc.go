// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) from this repository's own substrates. Each experiment
// returns a formatted report plus structured rows, and is exposed through
// cmd/recycle-bench. EVALUATION.md at the repository root maps each paper
// figure to its entry point here, the CLI invocation that reproduces it,
// and the path that computes it.
//
// ReCycle has one model: Table 1, Fig 9 and the Fig 11 ablation drive
// failure traces through internal/replay (chained compiled-Program
// executions with mid-iteration splicing — stalls are the makespan of real
// lost and re-planned instructions), and the straggler study executes
// compiled Programs on the DES virtual clock. Only the baselines (Oobleck,
// Bamboo, elastic, fault-scaled) are scalar sim.System models run by
// sim.Run, reproducing their published reconfiguration behavior; their
// shared fault-free throughput is read off the plan service's
// zero-failure plan. The Migration study compares the replay-measured
// state movement (micro-batch triples that changed owners at splices)
// against the failure-normalization scalar restart charge.
//
// Absolute numbers differ from the paper's A100 cluster (the cost model
// is analytic); the reproduced quantities are the comparative shapes —
// who wins, by what factor, where OOM happens, where crossovers fall.
// See EVALUATION.md for known deviations, figure by figure.
package experiments
