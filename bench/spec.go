package main

import "encoding/json"

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 15

// workloadDef names one workload. ops_per_s and op_ms_tail (the tail
// percentile) are taken per window of consecutive ops and reported as the
// median over the windows, so one burst of machine noise spoils one window
// and not the metric; a window of the live workloads keeps ten samples
// beyond the percentile, a window of the replay workloads is two rounds of
// the trace pool. batch is how many ops run
// between two checker/clock visits; retainAt is the op count at which
// retained_mb is read, fixed so a faster program is not charged for the
// extra ops it fits in a run.
type workloadDef struct {
	name, why string
	tail      float64
	window    int
	batch     int
	retainAt  int
}

var workloads = []workloadDef{
	{"steady", "fault-free live iterations on the in-process engine: dep board, router and goroutine fan-out do the work, the plan service is a cache hit, codec/solver/replay idle (tail p99)", 0.99, 1000, 100, 1000},
	{"executor", "same iterations with every Program fetched through engine.Client: planstore.Get + DecodeProgram sit on each op, so codec gains show here and nowhere else (tail p99)", 0.99, 1000, 50, 500},
	{"kill", "one worker killed mid-iteration per op: LiveSplice, cut execution, publish (encode + quorum put), phased interpreter and stash re-sends - the paper's failure path (tail p95)", 0.95, 200, 25, 300},
	{"replay-cold", "a seeded availability trace (6 fail/rejoin events, 24 machines) replayed on a fresh engine: every failure set is solved, compiled and encoded, what recycle-sim -replay costs (tail p90)", 0.90, 16, 1, 8},
	{"replay-warm", "same trace pool on one pre-warmed engine: solver and Compile bypassed, replay.Splice and the DES dominate, what a sweep pays per cell (tail p90)", 0.90, 16, 1, 16},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef is one named metric. bound applies to end-to-end metrics only;
// moves, the end-to-end effect a change of the metric is predicted to have,
// to per-layer metrics only (-list prints it).
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_ms_tail", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.10},
	{name: "retained_mb", unit: "MB", better: "lower", bound: 0.20},
}

const (
	mvInterp  = "ops_per_s, op_ms_p50, alloc_mb_per_op on steady (then executor, kill); nothing on replay-*"
	mvDecode  = "op_ms_p50 on executor only"
	mvEncode  = "op_ms_p50 on kill and replay-cold only"
	mvSplice  = "op_ms_p50/op_ms_tail on kill and replay-warm; nothing on steady/executor"
	mvDES     = "op_ms_p50 on replay-warm most, replay-cold, slightly kill"
	mvSolve   = "op_ms_p50 on replay-cold only; setup_s on replay-warm"
	mvTrace   = "no untraced metric; traced pass only"
	mvQuality = "none: plan quality, a faster solver that plans worse shows here"
	mvDerived = "derived from the metrics it names"
	mvSetup   = "setup_s on replay-*"
	mvCount   = "count, explains the timing next to it"
)

var perLayer = []metricDef{
	{name: "solver.solve_us", unit: "us", better: "lower", moves: mvSolve},
	{name: "solver.solve_scale_exp", unit: "exp", better: "lower", moves: mvSolve},
	{name: "solver.makespan_slots", unit: "slots", better: "lower", moves: mvQuality},
	{name: "solver.degraded_ratio", unit: "ratio", better: "lower", moves: mvQuality},
	{name: "solver.bubble_share", unit: "ratio", better: "lower", moves: mvQuality},

	{name: "schedule.instrs", unit: "count", better: "lower", moves: mvCount},
	{name: "schedule.compile_us", unit: "us", better: "lower", moves: mvSolve},
	{name: "schedule.compile_ns_per_instr", unit: "ns", better: "lower", moves: mvSolve},
	{name: "schedule.compile_allocs_per_instr", unit: "count", better: "lower", moves: mvSolve},
	{name: "schedule.compile_scale_exp", unit: "exp", better: "lower", moves: mvSolve},
	{name: "schedule.validate_us", unit: "us", better: "lower", moves: mvSplice},

	{name: "engine.encode_us", unit: "us", better: "lower", moves: mvEncode},
	{name: "engine.decode_us", unit: "us", better: "lower", moves: mvDecode},
	{name: "engine.decode_allocs_per_instr", unit: "count", better: "lower", moves: mvDecode},
	{name: "engine.program_kb", unit: "KB", better: "lower", moves: "retained_mb on kill; codec and store times"},
	{name: "engine.fetch_hit_us", unit: "us", better: "lower", moves: "op_ms_p50 on steady, below noise"},
	{name: "engine.fetch_miss_us", unit: "us", better: "lower", moves: mvSolve},
	{name: "engine.client_fetch_us", unit: "us", better: "lower", moves: mvDecode},
	{name: "engine.publish_us", unit: "us", better: "lower", moves: mvEncode},
	{name: "engine.spliced_fetch_us", unit: "us", better: "lower", moves: "none yet: no workload runs a remote executor through a kill"},
	{name: "engine.remote_resume_us", unit: "us", better: "lower", moves: mvDerived},
	{name: "engine.solves", unit: "count", better: "lower", moves: mvCount},
	{name: "engine.scratch_solves", unit: "count", better: "lower", moves: mvCount},
	{name: "engine.cache_hits", unit: "count", better: "higher", moves: mvCount},
	{name: "engine.compiles", unit: "count", better: "lower", moves: mvCount},
	{name: "engine.class_dedups", unit: "count", better: "higher", moves: mvCount},
	{name: "engine.store_errors", unit: "count", better: "lower", moves: mvCount},
	{name: "engine.hit_share", unit: "ratio", better: "higher", moves: "op_ms_p50 on replay-warm and kill"},

	{name: "planstore.put_us", unit: "us", better: "lower", moves: mvEncode},
	{name: "planstore.get_us", unit: "us", better: "lower", moves: mvDecode},

	{name: "replay.livesplice_us", unit: "us", better: "lower", moves: mvSplice},
	{name: "replay.livesplice_ns_per_instr", unit: "ns", better: "lower", moves: mvSplice},
	{name: "replay.livesplice_scale_exp", unit: "exp", better: "lower", moves: mvSplice},
	{name: "replay.kept_share", unit: "ratio", better: "higher", moves: mvQuality},
	{name: "replay.lost_ops_per_splice", unit: "count", better: "lower", moves: mvQuality},
	{name: "replay.rerouted_ops_per_splice", unit: "count", better: "lower", moves: mvQuality},
	{name: "replay.admissible_cut_share", unit: "ratio", better: "higher", moves: "setup_s on kill"},
	{name: "replay.event_ms", unit: "ms", better: "lower", moves: "op_ms_p50 on replay-warm"},
	{name: "replay.stall_s_per_event", unit: "s", better: "lower", moves: mvQuality},
	{name: "replay.avg_samples_per_s", unit: "1/s", better: "higher", moves: mvQuality},
	{name: "replay.gcp_medium_cold_ms", unit: "ms", better: "lower", moves: "tracks replay-cold"},
	{name: "replay.gcp_medium_warm_ms", unit: "ms", better: "lower", moves: "tracks replay-warm"},
	{name: "replay.gcp_6_7b_cold_ms", unit: "ms", better: "lower", moves: "tracks replay-cold at PP8"},
	{name: "replay.gcp_6_7b_warm_ms", unit: "ms", better: "lower", moves: "tracks replay-warm at PP8"},
	{name: "replay.gcp_iterations", unit: "count", better: "higher", moves: mvQuality},
	{name: "replay.gcp_spliced", unit: "count", better: "higher", moves: mvQuality},

	{name: "sim.exec_us", unit: "us", better: "lower", moves: mvDES},
	{name: "sim.exec_ns_per_instr", unit: "ns", better: "lower", moves: mvDES},
	{name: "sim.exec_allocs_per_instr", unit: "count", better: "lower", moves: mvDES},
	{name: "sim.exec_scale_exp", unit: "exp", better: "lower", moves: mvDES},
	{name: "sim.cut_exec_us", unit: "us", better: "lower", moves: mvSplice},
	{name: "sim.resume_exec_us", unit: "us", better: "lower", moves: mvDES},

	{name: "dtrain.iter_us", unit: "us", better: "lower", moves: mvInterp},
	{name: "dtrain.interp_ns_per_instr", unit: "ns", better: "lower", moves: mvInterp},
	{name: "dtrain.allocs_per_instr", unit: "count", better: "lower", moves: mvInterp},
	{name: "dtrain.compute_share", unit: "ratio", better: "higher", moves: "bounds what an interpreter gain can save on steady"},
	{name: "dtrain.fail_iter_us", unit: "us", better: "lower", moves: "op_ms_p50 on kill"},
	{name: "dtrain.kill_overhead_us", unit: "us", better: "lower", moves: mvDerived},
	{name: "dtrain.ctl_resume_us", unit: "us", better: "lower", moves: mvDerived},
	{name: "dtrain.kill_residual_us", unit: "us", better: "lower", moves: mvDerived},
	{name: "dtrain.rejoin_us", unit: "us", better: "lower", moves: "alloc_mb_per_op on kill"},
	{name: "dtrain.post_rejoin_iter_us", unit: "us", better: "lower", moves: mvInterp},
	{name: "dtrain.resends_per_kill", unit: "count", better: "lower", moves: mvCount},
	{name: "dtrain.step_noops_per_kill", unit: "count", better: "lower", moves: mvCount},
	{name: "dtrain.chaos_run_ms", unit: "ms", better: "lower", moves: "tracks kill at cascade depth 2"},

	{name: "obs.trace_overhead_pct", unit: "%", better: "lower", moves: mvTrace},
	{name: "obs.trace_tail_overhead_pct", unit: "%", better: "lower", moves: mvTrace},
	{name: "obs.trace_kb_per_iter", unit: "KB", better: "lower", moves: mvTrace},
	{name: "obs.critpath_us", unit: "us", better: "lower", moves: mvTrace},
	{name: "obs.tiling_violations", unit: "count", better: "lower", moves: "none: must be 0"},

	{name: "failure.gen_us", unit: "us", better: "lower", moves: mvSetup},
	{name: "failure.windows_us", unit: "us", better: "lower", moves: "op_ms_p50 on replay-*, below noise"},
	{name: "profile.analytic_us", unit: "us", better: "lower", moves: "op_ms_p50 on replay-cold, " + mvSetup},
	{name: "profile.calibrated_cost_us", unit: "us", better: "lower", moves: "op_ms_p50 on replay-cold, " + mvSetup},
}

// spanNames are the benchmark's own spans; each yields one per-layer metric
// span.<name>_self_us, the span's self time per op on the traced workload
// (0 on a workload that bypasses the layer).
var spanNames = []struct{ name, layer string }{
	{"op", "bench"},
	{"iter", "dtrain"},
	{"get", "planstore"},
	{"decode", "engine"},
	{"livesplice", "replay"},
	{"publish", "engine"},
	{"encode", "engine"},
	{"put", "planstore"},
	{"fail_iter", "dtrain"},
	{"rejoin", "dtrain"},
	{"post_iter", "dtrain"},
	{"engine_new", "profile"},
	{"replay", "replay"},
	{"fetch_miss", "engine"},
}

func init() {
	for _, s := range spanNames {
		perLayer = append(perLayer, metricDef{
			name: "span." + s.name + "_self_us", unit: "us", better: "lower",
			moves: "self time of the benchmark's " + s.name + " span (" + s.layer + ") per op of the traced workload",
		})
	}
}

// benchmarkJSON renders the builder-contract BENCHMARK.json from the tables
// above, so the file at the repo root cannot drift from what the program
// emits (bench_test.go compares them).
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is built from string and number literals
	}
	return append(out, '\n')
}
