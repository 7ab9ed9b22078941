// Command recycle-sim runs the training simulator (§6.3): a fault-tolerant
// system is replayed against a failure workload (a monotonic failure
// frequency, per-machine Poisson failures, or the GCP trace of Fig 9a).
// ReCycle (-system recycle, the default) is replayed at op granularity by
// internal/replay: chained compiled-Program executions whose mid-iteration
// failures and re-joins splice the in-flight Program, so stalls emerge
// from lost instructions. The baselines (oobleck | bamboo | elastic |
// scaled) are scalar system models whose throughput timeline is printed.
//
// With -des N no trace runs: the plan for N failures is compiled into a
// Program (the same artifact the live runtime interprets) and executed in
// virtual time, optionally with a straggler (-straggle), and the
// per-iteration compute makespans and per-worker utilization are printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"recycle/internal/baselines"
	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/experiments"
	"recycle/internal/failure"
	"recycle/internal/obs"
	"recycle/internal/profile"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

func main() {
	model := flag.String("model", "medium", "model preset: medium | 3.35b | 6.7b")
	system := flag.String("system", "recycle", "system: recycle (op-granularity replay) | oobleck | bamboo | elastic | scaled (scalar models)")
	freq := flag.Duration("freq", 30*time.Minute, "monotonic failure frequency")
	gcp := flag.Bool("gcp", false, "replay the GCP availability trace instead")
	horizon := flag.Duration("horizon", 6*time.Hour, "simulated duration")
	des := flag.Int("des", -1, "execute the compiled Program for this failure count op-by-op in virtual time instead of replaying a trace")
	straggle := flag.Float64("straggle", 1, "with -des: compute-op duration multiplier applied to worker W0_0 (straggler injection)")
	aware := flag.Bool("aware", true, "with -des and -straggle != 1: also solve a straggler-aware plan (cost model carries the slowdown) and compare makespans")
	events := flag.Bool("events", false, "with -system recycle: print the recorded lifecycle-event log (membership changes, kills, cuts)")
	tracePath := flag.String("trace", "", "with -des or -system recycle: record every executed Program and write a Chrome/Perfetto trace to this file (critical path audited first)")
	mtbf := flag.Duration("mtbf", 0, "per-machine Poisson failure trace: mean time between failures of each machine (0 keeps the monotonic workload)")
	mttr := flag.Duration("mttr", 30*time.Minute, "with -mtbf: mean repair time of a failed machine (0 makes failures permanent)")
	seed := flag.Int64("seed", 1, "with -mtbf: seed of the per-machine failure processes")
	flag.Parse()

	jobs := map[string]config.Job{
		"medium": config.Table1Jobs()[0],
		"3.35b":  config.Table1Jobs()[1],
		"6.7b":   config.Table1Jobs()[2],
	}
	job, ok := jobs[*model]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}
	stats, err := profile.Analytic(job)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *des >= 0 {
		if err := desTimeline(engine.New(job, stats, engine.Options{}), job, stats, *des, *straggle, *aware, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *system == "recycle" {
		if err := opReplay(job, *model, *gcp, *freq, *horizon, *events, *mtbf, *mttr, *seed, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	// The baselines are normalized against the fault-free throughput of
	// the plan service's zero-failure plan.
	eng := engine.New(job, stats, engine.Options{})
	plan, err := eng.Plan(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	ff := eng.ThroughputSamplesPerSec(plan)
	common, err := baselines.NewCommon(job, stats, ff)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	systems := map[string]sim.System{
		"oobleck": baselines.Oobleck{C: common},
		"bamboo":  baselines.Bamboo{C: common},
		"elastic": baselines.Elastic{C: common},
		"scaled":  baselines.FaultScaled{C: common},
	}
	sys, ok := systems[*system]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}
	var tr failure.Trace
	switch {
	case *gcp:
		tr = failure.GCP()
	case *mtbf > 0:
		tr = failure.PoissonMachines(job.Parallel.Workers(), *mtbf, *mttr, *horizon, *seed)
	default:
		tr = failure.Monotonic(job.Parallel.Workers(), *freq, *horizon)
	}
	res := sim.Run(sys, tr, *horizon)
	if res.OOM {
		fmt.Printf("%s cannot train %s: %v\n", sys.Name(), job.Model.Name, res.Err)
		os.Exit(1)
	}
	fmt.Printf("%s on %s over %s (%s):\n", sys.Name(), job.Model.Name, *horizon, tr.Name)
	fmt.Printf("%10s %10s %8s %14s %10s\n", "from", "to", "failed", "samples/s", "stall")
	for _, p := range res.Timeline {
		fmt.Printf("%10s %10s %8d %14.2f %10s\n",
			p.Start.Round(time.Second), p.End.Round(time.Second), p.Failed, p.Throughput, p.Stall.Round(time.Millisecond))
	}
	fmt.Printf("\naverage throughput: %.2f samples/s (fault-free %.2f, ratio %.3f)\n", res.Average, ff, res.Average/ff)
}

// opReplay drives the selected trace through internal/replay: chained
// compiled-Program executions, one per membership state, with
// mid-iteration failures and re-joins spliced into the in-flight Program.
// Victims come from the trace's machine identities. The GCP trace is
// sized for 24 workers, so -gcp selects the Fig 9 24-worker variant of
// the model; -mtbf replaces the monotonic workload with per-machine
// Poisson failure processes; plain monotonic traces replay the Table 1
// 32-worker shape.
func opReplay(job config.Job, model string, gcp bool, freq, horizon time.Duration, events bool, mtbf, mttr time.Duration, seed int64, tracePath string) error {
	var tr failure.Trace
	switch {
	case gcp:
		switch model {
		case "medium":
			job = experiments.Figure9Jobs()[0]
		case "6.7b":
			job = experiments.Figure9Jobs()[1]
		default:
			return fmt.Errorf("-gcp with -system recycle needs a 24-worker Fig 9 preset (medium | 6.7b), not %q", model)
		}
		tr = failure.GCP()
	case mtbf > 0:
		tr = failure.PoissonMachines(job.Parallel.Workers(), mtbf, mttr, horizon, seed)
	default:
		tr = failure.Monotonic(job.Parallel.Workers(), freq, horizon)
	}
	eng, stats, err := experiments.ReplayEngine(job, nil)
	if err != nil {
		return err
	}
	opts := experiments.ReplayOptions(job, stats)
	opts.Horizon = horizon
	var rec *obs.Trace
	if events || tracePath != "" {
		rec = obs.NewTrace()
		opts.Recorder = rec
	}
	res, err := replay.Replay(eng, tr, opts)
	if err != nil {
		return err
	}
	if cm := eng.CostModel(); cm != nil {
		fmt.Printf("calibrated stage scales: %s\n", cm.Signature())
	}
	fmt.Printf("op-granularity replay of %s on %s over %s:\n", tr.Name, job.Model.Name, horizon)
	fmt.Printf("  %d iterations, %.0f samples, avg %.2f samples/s\n", res.Iterations, res.Samples, res.Average)
	fmt.Printf("  %d membership events (%d spliced mid-iteration)\n", len(res.Events), res.SplicedCount())
	fmt.Printf("  emergent stall %.1fs, %d slots of completed work re-executed\n", res.StallSeconds, res.LostSlots)
	fmt.Printf("  %d micro-batch triples migrated owners across splices\n", res.MigratedTriples)
	if events {
		fmt.Printf("\nrecorded lifecycle events:\n%s", obs.FormatEvents(rec.Events()))
	}
	if tracePath != "" {
		return exportTrace(rec, tracePath)
	}
	return nil
}

// exportTrace audits the recorded trace (the critical path must tile every
// segment's makespan exactly) and writes the Chrome/Perfetto JSON to path.
func exportTrace(rec *obs.Trace, path string) error {
	summary, err := obs.AuditCriticalPaths(rec)
	if summary != "" {
		fmt.Println("\n" + summary)
	}
	if err != nil {
		return fmt.Errorf("critical-path audit: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, rec); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	c := rec.Counters()
	fmt.Printf("trace: %d segments, %d spans, %d events -> %s\n",
		c["segments"], c["spans"], c["events"], path)
	return nil
}

// desTimeline compiles the plan for n failures into a Program and executes
// it op-by-op in virtual time. With a straggler injected, it additionally
// re-solves with the slowdown in the Planner's cost model and reports how
// much makespan the straggler-aware plan recovers.
func desTimeline(eng *engine.Engine, job config.Job, stats profile.Stats, n int, straggle float64, aware bool, tracePath string) error {
	prog, err := eng.Program(n)
	if err != nil {
		return err
	}
	opts := sim.ProgramOptions{}
	var rec *obs.Trace
	if tracePath != "" {
		rec = obs.NewTrace()
		opts.Recorder = rec
		opts.TraceLabel = fmt.Sprintf("des/%df", n)
	}
	victim := schedule.Worker{Stage: 0, Pipeline: 0}
	if straggle != 1 {
		// The victim's ops run at its modeled straggler cost — the cost
		// model the straggler-aware comparison below prices it with.
		truth := profile.UniformCost(stats).WithWorkerScale(victim, straggle)
		if prog, err = prog.WithCosts(schedule.NewCostTable(prog.Shape, truth.Fn())); err != nil {
			return err
		}
	}
	ex, err := sim.ExecuteProgram(prog, opts)
	if err != nil {
		return err
	}
	fmt.Printf("compiled Program for %d failures on %s: %d instructions over %d workers\n",
		n, job.Model.Name, len(prog.Instrs), len(prog.Workers()))
	if straggle != 1 {
		fmt.Printf("straggler: %s at %.2fx\n", victim, straggle)
	}
	for it := 0; it < prog.Shape.Iter; it++ {
		fmt.Printf("  iteration %d compute makespan: %d slots\n", it, ex.ComputeMakespan(it))
	}
	fmt.Printf("  total makespan (incl. optimizer): %d slots\n", ex.Makespan)
	busy := ex.WorkerBusy()
	var worst schedule.Worker
	var worstIdle float64 = -1
	for _, w := range prog.Workers() {
		idle := 1 - float64(busy[w])/float64(ex.Makespan)
		if idle > worstIdle {
			worst, worstIdle = w, idle
		}
	}
	fmt.Printf("  most idle worker: %s (%.1f%% idle)\n", worst, worstIdle*100)
	if straggle != 1 && aware {
		row, err := experiments.StragglerStudyJob(job, stats, n, victim, straggle)
		if err != nil {
			return err
		}
		fmt.Printf("\nstraggler-aware re-plan (cost model carries %s at %.2fx):\n", victim, straggle)
		fmt.Printf("  oblivious plan makespan: %d slots (victim executes %d compute ops)\n", row.ObliviousSlots, row.VictimOps)
		fmt.Printf("  aware plan makespan:     %d slots (victim executes %d compute ops)\n", row.AwareSlots, row.VictimOpsAware)
		fmt.Printf("  throughput gain from re-planning: %+.1f%%\n", row.GainPct)
	}
	m := eng.Metrics()
	fmt.Printf("plan service: %d solves, %d programs compiled\n", m.Solves, m.Compiles)
	if tracePath != "" {
		return exportTrace(rec, tracePath)
	}
	return nil
}
