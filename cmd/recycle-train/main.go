// Command recycle-train runs the live distributed training runtime: a
// DPxPP grid of executor goroutines trains a real model under adaptive
// schedules, with failures and re-joins injected mid-run, and verifies the
// paper's accuracy claim by comparing the loss trajectory against a
// fault-free reference run. Schedules come from the plan service
// (internal/engine) via the Coordinator fetch path; with -preplan the
// offline phase precomputes every tolerated plan before training starts.
package main

import (
	"flag"
	"fmt"
	"os"

	"recycle/internal/dtrain"
	"recycle/internal/obs"
	"recycle/internal/schedule"
)

func main() {
	dp := flag.Int("dp", 3, "data-parallel pipelines")
	pp := flag.Int("pp", 4, "pipeline stages")
	mb := flag.Int("mb", 6, "micro-batches per pipeline")
	iters := flag.Int("iters", 8, "training iterations")
	failIter := flag.Int("fail-at", 2, "iteration before which a worker fails (-1 disables)")
	rejoinIter := flag.Int("rejoin-at", 6, "iteration before which it re-joins (-1 disables)")
	preplan := flag.Bool("preplan", false, "precompute plans for every tolerated failure count before training")
	chaos := flag.Bool("chaos", false, "run the seeded chaos harness: kill workers mid-iteration at a random instruction index and compare losses bitwise")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos rng seed (victim choice and kill instant)")
	chaosVictims := flag.Int("chaos-victims", 1, "workers killed at the chaos kill instant")
	chaosPoint := flag.String("chaos-point", "ops", "chaos kill point: send, ops, allreduce or epilogue")
	chaosCascade := flag.Int("chaos-cascade", 1, "chained chaos kill events in the kill iteration (later kills land while the previous splice's suffix is executing)")
	tracePath := flag.String("trace", "", "record every executed instruction on the adapted (or chaos) runtime and write a Chrome/Perfetto trace to this file (critical path audited first)")
	flag.Parse()
	if *dp < 2 {
		fmt.Fprintf(os.Stderr, "-dp %d: ReCycle re-routes a failed worker's micro-batches to its data-parallel peers, so it needs at least two data-parallel pipelines\n", *dp)
		os.Exit(2)
	}

	cfg := dtrain.Config{
		DP: *dp, PP: *pp, MB: *mb,
		InDim: 12, Hidden: 24, OutDim: 6, MicroBatchSize: 8,
		Seed: 42, LR: 5e-3,
	}
	if *chaos {
		runChaos(cfg, *iters, *chaosSeed, *chaosVictims, *chaosPoint, *chaosCascade, *tracePath)
		return
	}
	victim := schedule.Worker{Stage: *pp - 2, Pipeline: 1}
	if *pp < 2 {
		victim = schedule.Worker{Stage: 0, Pipeline: 1}
	}

	ref := dtrain.New(cfg)
	adapted := dtrain.New(cfg)
	var rec *obs.Trace
	if *tracePath != "" {
		rec = obs.NewTrace()
		adapted.AttachRecorder(rec)
	}
	if *preplan {
		if err := adapted.PrePlan(0); err != nil {
			fmt.Fprintln(os.Stderr, "preplan:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("live training: DP=%d PP=%d MB=%d; victim worker %s\n\n", *dp, *pp, *mb, victim)
	fmt.Printf("%5s %22s %22s %s\n", "iter", "fault-free loss", "adapted loss", "")
	for i := 0; i < *iters; i++ {
		if i == *failIter {
			adapted.Fail(victim)
			fmt.Printf("--- %s fails; micro-batches re-route to its data-parallel peers ---\n", victim)
		}
		if i == *rejoinIter {
			if err := adapted.Rejoin(victim); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("--- %s re-joins; parameters restored point-to-point from a peer ---\n", victim)
		}
		lr, err := ref.RunIteration()
		if err != nil {
			fmt.Fprintln(os.Stderr, "reference:", err)
			os.Exit(1)
		}
		la, err := adapted.RunIteration()
		if err != nil {
			fmt.Fprintln(os.Stderr, "adapted:", err)
			os.Exit(1)
		}
		mark := "bitwise equal"
		if lr != la {
			mark = "MISMATCH"
		}
		fmt.Printf("%5d %22.16f %22.16f  %s\n", i, lr, la, mark)
	}
	m := adapted.PlanMetrics()
	fmt.Printf("\nplan service (adapted run): %d solves, %d cache hits, %d Best(n) hits\n",
		m.Solves, m.CacheHits, m.BestHits)
	if rec != nil {
		if err := obs.ExportChromeTrace(os.Stdout, rec, *tracePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// runChaos drives the fault-injection harness: a seeded mid-iteration kill
// cascade in the middle of the run, victims restored at the next boundary,
// every iteration's loss compared bitwise against a fault-free reference.
func runChaos(cfg dtrain.Config, iters int, seed int64, victims int, pointName string, cascade int, tracePath string) {
	point, err := dtrain.ParseKillPoint(pointName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opt := dtrain.ChaosOptions{
		Seed: seed, Iterations: iters, KillIter: iters / 2,
		Victims: victims, Point: point, Cascade: cascade,
	}
	var rec *obs.Trace
	if tracePath != "" {
		rec = obs.NewTrace()
		opt.Recorder = rec
	}
	fmt.Printf("chaos run: DP=%d PP=%d MB=%d; depth-%d cascade, %d victim(s) per kill, mid-iteration %d at random %q points (seed %d)\n\n",
		cfg.DP, cfg.PP, cfg.MB, cascade, victims, opt.KillIter, point, seed)
	res, err := dtrain.Chaos(cfg, opt)
	if err != nil {
		// Every chaos error carries the flight recorder's dump, so the
		// crash is diagnosable post-mortem from this one line; the full
		// trace of the failed run is exported too.
		fmt.Fprintln(os.Stderr, "chaos:", err)
		exportChaosTrace(rec, tracePath)
		os.Exit(1)
	}
	for i, k := range res.Kills {
		fmt.Printf("kill %d/%d: %v at slot %d, %q point (splice event %s)\n",
			i+1, len(res.Kills), k.Victims, k.Cut, k.Point, k.Event)
	}
	fmt.Println()
	fmt.Printf("%5s %22s %22s %s\n", "iter", "fault-free loss", "chaos loss", "")
	equal := true
	for i := range res.Losses {
		mark := "bitwise equal"
		if res.Losses[i] != res.RefLosses[i] {
			mark = "MISMATCH"
			equal = false
		}
		fmt.Printf("%5d %22.16f %22.16f  %s\n", i, res.RefLosses[i], res.Losses[i], mark)
	}
	if !equal {
		fmt.Fprintln(os.Stderr, "\nchaos run diverged from the fault-free reference")
		exportChaosTrace(rec, tracePath)
		os.Exit(1)
	}
	fmt.Println("\nall iterations bitwise equal: the kill changed the schedule, never the math")
	exportChaosTrace(rec, tracePath)
}

// exportChaosTrace writes the chaos run's trace when -trace asked for one,
// exiting 1 if the export fails.
func exportChaosTrace(rec *obs.Trace, path string) {
	if rec == nil {
		return
	}
	if err := obs.ExportChromeTrace(os.Stdout, rec, path); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
