// Command recycle-bench regenerates every table and figure of the paper's
// evaluation (§6) and prints the reports — the data behind EVALUATION.md.
// With -json the full structured result set is emitted as one JSON
// document instead, so CI and perf-trajectory tooling can diff runs
// without scraping formatted text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"recycle/internal/dtrain"
	"recycle/internal/experiments"
	"recycle/internal/obs"
	"recycle/internal/schedule"
)

// report is the machine-readable shape of one full evaluation run. The
// Fig9 section carries the op-granularity replay: per-model throughput
// plus the full splice event log (lost work, re-planned ops, emergent
// stalls) alongside the baselines' scalar averages.
type report struct {
	Gallery   experiments.GallerySlots
	Table1    []experiments.Table1Row
	Table2    []experiments.Table2Row
	Straggler []experiments.StragglerRow
	Fig9      []experiments.Figure9Result
	Fig10     []experiments.Fig10Row
	Fig11     []experiments.Fig11Row
	Fig12     []experiments.Fig12Row
	Fig13     []experiments.Fig13Cell
	// Migration compares the replay-measured state movement (micro-batch
	// triples that changed owners at splices) against the scalar
	// failure-normalization restart charge for the Table 1 workloads.
	Migration []experiments.MigrationRow
}

func main() {
	fig13 := flag.Bool("fig13", false, "include the (slow) planner-latency heat map")
	asJSON := flag.Bool("json", false, "emit the structured results as JSON on stdout")
	metricsOnly := flag.Bool("metrics", false, "run a short traced training exercise and dump the unified metrics registry (engine + runtime + per-phase trace counters) as versioned JSON")
	flag.Parse()

	var rep report
	var err error
	// In text mode each section prints as soon as it is computed (the run
	// takes minutes); -json suppresses the incremental prints and emits
	// the collected struct at the end.
	emit := func(s string) {
		if !*asJSON {
			fmt.Println(s)
		}
	}

	if *metricsOnly {
		m, err := exerciseMetrics()
		check(err)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(m))
		return
	}

	rep.Gallery, err = experiments.Gallery()
	check(err)
	emit(fmt.Sprintf("Figs 3/5/6 (running example, slots): fault-free %d | adaptive naive (Fig 3b) %d | decoupled %d | staggered steady period %d vs fault-free period %d\n",
		rep.Gallery.FaultFree, rep.Gallery.AdaptiveNaive, rep.Gallery.Decoupled, rep.Gallery.StaggeredPeriod, rep.Gallery.FaultFreePeriod))

	var t string
	rep.Table1, t, err = experiments.Table1()
	check(err)
	emit(t)

	rep.Table2, t, err = experiments.Table2()
	check(err)
	emit(t)

	rep.Straggler, t, err = experiments.Straggler()
	check(err)
	emit(t)

	rep.Fig9, t, err = experiments.Figure9()
	check(err)
	emit(t)

	rep.Fig10, t, err = experiments.Fig10()
	check(err)
	emit(t)

	rep.Fig11, t, err = experiments.Fig11()
	check(err)
	emit(t)

	rep.Migration, t, err = experiments.Migration()
	check(err)
	emit(t)

	rep.Fig12, t, err = experiments.Fig12()
	check(err)
	emit(t)

	pps, dps := []int{2, 8, 32}, []int{2, 8}
	if *fig13 {
		pps, dps = []int{2, 4, 8, 16, 32, 64}, []int{2, 4, 8, 16, 32}
	}
	rep.Fig13, t, err = experiments.Fig13(pps, dps)
	check(err)
	emit(t)
	if !*fig13 {
		emit("(run with -fig13 for the full 6x5 grid)")
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(rep))
	}
}

// exerciseMetrics runs a short traced training exercise — two fault-free
// iterations, a failure, one adapted iteration — and returns the unified
// registry snapshot: plan-service counters, runtime op totals, and the
// per-phase span/event counts from the recorder, one versioned document.
func exerciseMetrics() (obs.Snapshot, error) {
	cfg := dtrain.Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 4, MicroBatchSize: 4,
		Seed: 7, LR: 5e-3,
	}
	rt := dtrain.New(cfg)
	rt.AttachRecorder(obs.NewTrace())
	for i := 0; i < 2; i++ {
		if _, err := rt.RunIteration(); err != nil {
			return obs.Snapshot{}, err
		}
	}
	rt.Fail(schedule.Worker{Stage: 0, Pipeline: 1})
	if _, err := rt.RunIteration(); err != nil {
		return obs.Snapshot{}, err
	}
	return rt.MetricsSnapshot(), nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
