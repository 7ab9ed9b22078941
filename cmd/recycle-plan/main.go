// Command recycle-plan generates and prints adaptive pipeline schedules:
// the offline Planner phase of Fig 8, driven through the plan service
// (internal/engine). It plans for a configurable number of simultaneous
// failures on a chosen GPT-3 job and reports the failure normalization,
// steady-state period, throughput and planning latency; with -all it
// precomputes every tolerated failure count concurrently and replicates
// the plans; with -render it draws the schedule Gantt chart.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/obs"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

func main() {
	model := flag.String("model", "medium", "model preset: medium | 3.35b | 6.7b")
	failures := flag.Int("failures", 1, "simultaneous worker failures to plan for")
	all := flag.Bool("all", false, "precompute plans for every tolerated failure count (0..DP-1) concurrently")
	render := flag.Bool("render", false, "draw the adapted schedule (small jobs only)")
	events := flag.Bool("events", false, "print the plan service's recorded lifecycle events (fetches, solves, warms)")
	flag.Parse()

	var job config.Job
	switch *model {
	case "medium":
		job = config.Table1Jobs()[0]
	case "3.35b":
		job = config.Table1Jobs()[1]
	case "6.7b":
		job = config.Table1Jobs()[2]
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		os.Exit(2)
	}
	stats, err := profile.Analytic(job)
	if err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
		os.Exit(1)
	}
	eng := engine.New(job, stats, engine.Options{})
	var rec *obs.Trace
	if *events {
		rec = obs.NewTrace()
		eng.SetRecorder(rec)
	}
	if *all {
		start := time.Now()
		w := eng.Warm(0)
		if err := w.Wait(); err != nil {
			fmt.Fprintln(os.Stderr, "plan:", err)
			os.Exit(1)
		}
		done, total := w.Coverage()
		fmt.Printf("offline phase: %d/%d plans (0..%d failures) warmed concurrently and replicated in %s\n",
			done, total, job.MaxPlannedFailures(), time.Since(start).Round(time.Millisecond))
	}
	ff, err := eng.Plan(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plan:", err)
		os.Exit(1)
	}
	plan, err := eng.Plan(*failures)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plan:", err)
		os.Exit(1)
	}
	fmt.Printf("%s  PP=%d DP=%d  micro-batches/pipeline=%d\n",
		job.Model.Name, job.Parallel.PP, job.Parallel.DP, job.Batch.MicroBatchesPerPipeline(job.Parallel))
	fmt.Printf("failures=%d  normalized per-stage assignment=%v\n", plan.Failures, plan.Assignment)
	fmt.Printf("normalized failed workers: %v\n", plan.Failed)
	fmt.Printf("fault-free iteration: %.1f ms   adapted: %.1f ms   (%.1f%% overhead)\n",
		eng.IterationSeconds(ff)*1e3, eng.IterationSeconds(plan)*1e3,
		(float64(plan.PeriodSlots)/float64(ff.PeriodSlots)-1)*100)
	fmt.Printf("throughput: fault-free %.2f samples/s -> adapted %.2f samples/s\n",
		eng.ThroughputSamplesPerSec(ff), eng.ThroughputSamplesPerSec(plan))
	fmt.Printf("planner latency: %s\n", plan.PlanTime)
	m := eng.Metrics()
	fmt.Printf("plan service: %d solves, %d cache hits, %d store hits, %d class dedups\n",
		m.Solves, m.CacheHits, m.StoreHits, m.ClassDedups)
	if *events {
		fmt.Printf("\nplan service events:\n%s", obs.FormatEvents(rec.Events()))
	}
	if *render {
		fmt.Println()
		fmt.Println(schedule.Render(plan.Schedule, 5))
	}
}
