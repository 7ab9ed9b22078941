// Quickstart: plan around a failure and quantify the recovery.
//
// This example sets up a small hybrid-parallel job, profiles it with the
// analytic cost model, and runs the offline phase of Fig 8 through the
// plan service: adaptive schedules for 0..2 simultaneous failures are
// solved concurrently and cached. It then reports throughput, the
// per-stage failure normalization, and the migration count needed to
// apply the plan to a concrete failure.
package main

import (
	"fmt"
	"log"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

func main() {
	job := config.Job{
		Model:    config.GPT3XL,
		Parallel: config.Parallelism{DP: 8, PP: 4, TP: 1},
		Batch:    config.Batch{GlobalBatch: 512, MicroBatch: 2},
		Hardware: config.A100x1,
	}
	if err := job.Validate(); err != nil {
		log.Fatal(err)
	}
	stats, err := profile.Analytic(job)
	if err != nil {
		log.Fatal(err)
	}
	eng := engine.New(job, stats, engine.Options{})

	// The offline phase: one plan per tolerated failure count, warmed
	// concurrently (fewest failures first) into the engine's cache.
	if err := eng.Warm(2); err != nil {
		log.Fatal(err)
	}
	ff, err := eng.Plan(0)
	if err != nil {
		log.Fatal(err)
	}
	adapted, err := eng.Plan(2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("job: %s on %d workers (PP=%d x DP=%d)\n",
		job.Model.Name, job.Parallel.Workers(), job.Parallel.PP, job.Parallel.DP)
	fmt.Printf("fault-free: %6.1f ms/iter, %8.2f samples/s\n",
		eng.IterationSeconds(ff)*1e3, eng.ThroughputSamplesPerSec(ff))
	fmt.Printf("2 failures: %6.1f ms/iter, %8.2f samples/s (%.1f%% overhead; fault-scaled ideal %.1f%%)\n",
		eng.IterationSeconds(adapted)*1e3, eng.ThroughputSamplesPerSec(adapted),
		(float64(adapted.PeriodSlots)/float64(ff.PeriodSlots)-1)*100,
		float64(job.Parallel.Workers())/float64(job.Parallel.Workers()-2)*100-100)
	fmt.Printf("failure normalization per stage: %v\n", adapted.Assignment)

	// A concrete failure pair somewhere in the cluster: how much data moves
	// to morph it into the normalized layout? One stage's parameters per
	// out-of-place worker — that is ReCycle's whole reconfiguration.
	concrete := []schedule.Worker{{Stage: 0, Pipeline: 3}, {Stage: 3, Pipeline: 5}}
	fmt.Printf("concrete failures %v need %d point-to-point parameter migration(s)\n",
		concrete, eng.MigrationsNeeded(concrete, adapted))

	m := eng.Metrics()
	fmt.Printf("plan service: %d solves, %d cache hits\n",
		m.Solves, m.CacheHits)
}
