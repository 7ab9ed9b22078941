// Trace replay: the Fig 9 dynamic-availability experiment, end to end
// through the plan service — at op granularity.
//
// Replays the GCP-derived availability trace (24 workers dipping to 15
// with frequent removals and re-joins over six hours) on the GPT-3 Medium
// job. ReCycle is driven by internal/replay: the whole trace becomes a
// chain of compiled-Program executions, and every availability change
// that lands inside an iteration splices the in-flight Program — the
// executed prefix is kept, the suffix is re-planned against the new
// worker set, and the iteration resumes without waiting for the boundary.
// Stalls therefore emerge from lost and re-planned instructions; nothing
// is charged by formula. Oobleck and Bamboo remain scalar system models
// for comparison, normalized against the fault-free throughput of the
// plan service's zero-failure plan. The end prints how many schedules the
// replay solved and Programs it compiled, not its hit counts, which vary
// from run to run: the replay's prefetch pool races its main loop.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"recycle/internal/baselines"
	"recycle/internal/engine"
	"recycle/internal/experiments"
	"recycle/internal/failure"
	"recycle/internal/profile"
	"recycle/internal/replay"
	"recycle/internal/sim"
)

func main() {
	horizon := 6 * time.Hour
	tr := failure.GCP()
	job := experiments.Figure9Jobs()[0] // GPT-3 Medium, 24 workers (PP=2, DP=12)
	stats, err := profile.Analytic(job)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("GCP trace (Fig 9a): %d workers, min %d, mean %.1f\n",
		tr.Total, tr.MinAvailable(), tr.Average(horizon))
	for _, s := range tr.Steps {
		fmt.Printf("  %6s %s %d\n", s.At.Round(time.Minute), strings.Repeat("#", s.Available), s.Available)
	}
	fmt.Println()

	eng, _, err := experiments.ReplayEngine(job, nil)
	if err != nil {
		log.Fatal(err)
	}
	opts := experiments.ReplayOptions(job, stats)
	opts.Horizon = horizon
	res, err := replay.Replay(eng, tr, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ReCycle (op-granularity replay): avg %.2f samples/s over %d iterations\n",
		res.Average, res.Iterations)
	fmt.Printf("  %d membership events, %d spliced mid-iteration\n", len(res.Events), res.SplicedCount())
	fmt.Printf("  emergent stall %.1fs, %d slots of completed work re-executed\n",
		res.StallSeconds, res.LostSlots)
	fmt.Printf("  %d micro-batch triples migrated owners across splices\n\n", res.MigratedTriples)

	ffEng := engine.New(job, stats, engine.Options{})
	ffPlan, err := ffEng.Plan(0)
	if err != nil {
		log.Fatal(err)
	}
	common, err := baselines.NewCommon(job, stats, ffEng.ThroughputSamplesPerSec(ffPlan))
	if err != nil {
		log.Fatal(err)
	}
	results := map[string]sim.Result{}
	for _, sys := range []sim.System{baselines.Oobleck{C: common}, baselines.Bamboo{C: common}} {
		r := sim.Run(sys, tr, horizon)
		results[sys.Name()] = r
		fmt.Println(r)
	}
	o, b := results["Oobleck"], results["Bamboo"]
	if o.Average > 0 {
		fmt.Printf("\nReCycle / Oobleck = %.2fx", res.Average/o.Average)
	}
	if b.Average > 0 {
		fmt.Printf("   ReCycle / Bamboo = %.2fx", res.Average/b.Average)
	}
	fmt.Println()

	m := eng.Metrics()
	fmt.Printf("\nplan service: %d solves, %d programs compiled\n", m.Solves, m.Compiles)
}
