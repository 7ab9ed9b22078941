// Package profile implements ReCycle's Profiler (Fig 8): it derives the
// statistics the Planner consumes.
//
// Stats is the fleet-wide bundle — forward / backward-input /
// backward-weight / optimizer latencies, communication latency, and
// per-stage memory budgets — quantized into integer duration units. Two
// sources feed it:
//
//   - Analytic (the default in this reproduction): the transformer cost
//     model in internal/model evaluated on a hardware preset, standing in
//     for the paper's 100-iteration profiling job on real GPUs.
//   - Measured: timing callbacks from the live runtime (internal/dtrain),
//     used by the Table 2 sim-fidelity experiment.
//
// CostModel is the heterogeneity layer on top of Stats: per-(stage, op,
// worker) durations built from the base stats plus per-stage multipliers
// (uneven layer splits) and per-worker multipliers (stragglers — the
// paper's gray failures). The Planner threads it through every solver so
// makespan decisions use real durations; schedule.Compile stamps the same
// numbers onto Program instructions, so the runtime and the simulator
// execute against exactly what was optimized. Cost models are immutable
// and derived copy-on-write (WithWorkerScale / WithStageScale). An engine
// tabulates its model once (CostModel.Table), and the table enters the
// engine's plan-cache namespace, so two engines built with different
// models never share a plan.
package profile
