package experiments

import (
	"fmt"
	"strings"
	"time"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/model"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// Fig12Row is one pipeline stage's memory utilization.
type Fig12Row struct {
	Stage          int
	FaultFreeBytes int64 // DeepSpeed 1F1B peak
	ReCycleBytes   int64 // adapted schedule peak (30m end state)
	CapacityBytes  int64
}

// Fig12 reproduces the per-stage memory comparison for GPT-3 6.7B under
// 30-minute failures: ReCycle's Decoupled BackProp fills the surplus
// memory of later 1F1B stages, approaching (without exceeding) the device
// capacity, while fault-free DeepSpeed leaves it idle.
func Fig12() ([]Fig12Row, string, error) {
	job := config.Table1Jobs()[2] // GPT-3 6.7B, PP=8
	stats, err := profile.Analytic(job)
	if err != nil {
		return nil, "", err
	}
	costs, err := model.Split(job.Model, job.Parallel.PP, job.Batch.MicroBatch)
	if err != nil {
		return nil, "", err
	}
	mem := costs.Memory(job.Hardware)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 2})

	// 30m failures over 6h on 32 workers: 12 workers down at the end.
	failures := int(Horizon / (30 * time.Minute))
	plan, err := eng.Plan(failures)
	if err != nil {
		return nil, "", err
	}
	ffPlan, err := eng.Plan(0)
	if err != nil {
		return nil, "", err
	}
	prog, err := eng.CompiledProgram(plan)
	if err != nil {
		return nil, "", err
	}
	ffProg, err := eng.CompiledProgram(ffPlan)
	if err != nil {
		return nil, "", err
	}
	adapted, faultFree := prog.PeakActivations(), ffProg.PeakActivations()

	perStage := func(peaks map[schedule.Worker]int, stage int) int {
		m := 0
		for w, v := range peaks {
			if w.Stage == stage && v > m {
				m = v
			}
		}
		return m
	}
	var rows []Fig12Row
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12: peak memory per stage, GPT-3 6.7B (capacity %.1f GB)\n", gb(mem.CapacityBytes))
	fmt.Fprintf(&b, "%5s %18s %14s\n", "stage", "DeepSpeed-FF (GB)", "ReCycle (GB)")
	for i := 0; i < job.Parallel.PP; i++ {
		ff := mem.StaticBytes + int64(perStage(faultFree, i))*mem.PerActivationBytes
		rc := mem.StaticBytes + int64(perStage(adapted, i))*mem.PerActivationBytes
		rows = append(rows, Fig12Row{Stage: i, FaultFreeBytes: ff, ReCycleBytes: rc, CapacityBytes: mem.CapacityBytes})
		fmt.Fprintf(&b, "%5d %18.1f %14.1f\n", i, gb(ff), gb(rc))
	}
	return rows, b.String(), nil
}

func gb(b int64) float64 { return float64(b) / (1 << 30) }

// Fig13Cell is one heat-map cell: planner latency for a (PP, DP) grid.
type Fig13Cell struct {
	PP, DP int
	// Latency is the estimated time to generate plans for every failure
	// count up to 25% of workers, extrapolated from sampled counts.
	Latency time.Duration
	Sampled int
}

// Fig13 measures Planner latency across hybrid-parallel grids, planning
// for up to 25% failed workers. The paper runs Gurobi for every failure
// count (up to 52.5 minutes for 2048 GPUs); to keep the harness fast we
// plan a sample of failure counts per grid and extrapolate the total —
// the reported shape (latency growing with both PP and DP) is what the
// figure shows.
func Fig13(pps, dps []int) ([]Fig13Cell, string, error) {
	var cells []Fig13Cell
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 13: planner latency (s) for plans covering up to 25%% failures\n%8s", "DP\\PP")
	for _, pp := range pps {
		fmt.Fprintf(&b, "%9d", pp)
	}
	fmt.Fprintln(&b)
	for _, dp := range dps {
		fmt.Fprintf(&b, "%8d", dp)
		for _, pp := range pps {
			cell, err := fig13Cell(pp, dp)
			if err != nil {
				return nil, "", err
			}
			cells = append(cells, cell)
			fmt.Fprintf(&b, "%9.2f", cell.Latency.Seconds())
		}
		fmt.Fprintln(&b)
	}
	return cells, b.String(), nil
}

func fig13Cell(pp, dp int) (Fig13Cell, error) {
	mbPer := 2048 / dp
	if mbPer < pp {
		mbPer = pp
	}
	job := config.Job{
		Model:    config.GPT3_18_4B,
		Parallel: config.Parallelism{DP: dp, PP: pp, TP: 1},
		Batch:    config.Batch{GlobalBatch: mbPer * dp, MicroBatch: 1},
		Hardware: config.A100x8,
	}
	if job.Model.Layers < pp {
		job.Model = config.GPT3_145_6B // enough layers for deep pipelines
	}
	stats, err := profile.Analytic(job)
	if err != nil {
		return Fig13Cell{}, err
	}
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 2})
	maxF := dp * pp / 4
	if maxF < 1 {
		maxF = 1
	}
	samples := []int{1, maxF / 3, 2 * maxF / 3, maxF}
	var total time.Duration
	n := 0
	seen := map[int]bool{}
	for _, f := range samples {
		if f < 1 || seen[f] {
			continue
		}
		seen[f] = true
		p, err := eng.Plan(f)
		if err != nil {
			return Fig13Cell{}, fmt.Errorf("fig13 PP=%d DP=%d f=%d: %w", pp, dp, f, err)
		}
		total += p.PlanTime
		n++
	}
	if n == 0 {
		return Fig13Cell{PP: pp, DP: dp}, nil
	}
	est := time.Duration(float64(total) / float64(n) * float64(maxF))
	return Fig13Cell{PP: pp, DP: dp, Latency: est, Sampled: n}, nil
}
