package replay

import (
	"testing"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// BenchmarkSpliceReplayJob measures one Splice of the Fig 9 GPT-3 Medium
// iteration — DP12×PP2×MB85 on the calibrated cost model the replay
// engine plans with — cut at half its makespan, where W5_1 dies: the
// splice replay-warm pays per membership event. The cut execution is taken
// once, outside the loop.
func BenchmarkSpliceReplayJob(b *testing.B) {
	job := config.Job{
		Model:    config.GPT3Medium,
		Parallel: config.Parallelism{DP: 12, PP: 2, TP: 1},
		Batch:    config.Batch{GlobalBatch: 8160, MicroBatch: 8},
		Hardware: config.A100x1,
	}
	stats, err := profile.Analytic(job)
	if err != nil {
		b.Fatal(err)
	}
	cm, err := profile.CalibratedCost(job, stats)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1, CostModel: cm})
	prog, err := eng.ProgramFor(nil)
	if err != nil {
		b.Fatal(err)
	}
	var costs schedule.CostFunc
	if cm := eng.CostModel(); cm != nil {
		costs = cm.Fn()
	}
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		b.Fatal(err)
	}
	victim, cut := schedule.Worker{Stage: 1, Pipeline: 5}, full.Makespan/2
	cutEx, err := sim.ExecuteProgram(prog, sim.ProgramOptions{CutAt: cut, FailAt: map[schedule.Worker]int64{victim: cut}})
	if err != nil {
		b.Fatal(err)
	}
	in := SpliceInput{
		Prog: prog, Starts: cutEx.Start, Ends: cutEx.End,
		Cut: cut, Fail: []schedule.Worker{victim}, Costs: costs,
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Splice(in); err != nil {
			b.Fatal(err)
		}
	}
}
