package replay

import (
	"testing"
	"time"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// replayJobEngine is the engine replay-warm plans the Fig 9 GPT-3 Medium
// iteration with: DP12×PP2×MB85 on the calibrated cost model.
func replayJobEngine(b *testing.B) *engine.Engine {
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
	return engine.New(job, stats, engine.Options{UnrollIterations: 1, CostModel: cm})
}

// BenchmarkCompileReplayJob measures one Compile of the healthy Fig 9 GPT-3
// Medium schedule (4 104 instructions): the lowering every spliced
// schedule pays, and what each Program the engine caches costs to build.
func BenchmarkCompileReplayJob(b *testing.B) {
	s, err := replayJobEngine(b).ScheduleFor(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := schedule.Compile(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateReplayJob measures one Program.Validate of the healthy
// Fig 9 GPT-3 Medium Program: what Compile, the builder and every decode
// pay to prove a Program runs to completion.
func BenchmarkValidateReplayJob(b *testing.B) {
	prog, err := replayJobEngine(b).ProgramFor(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := prog.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteReplayJob measures the DES on the Fig 9 GPT-3 Medium
// Program: a whole healthy iteration, and the cut execution a kill of W5_1
// at half the makespan starts its splice with.
func BenchmarkExecuteReplayJob(b *testing.B) {
	prog, err := replayJobEngine(b).ProgramFor(nil)
	if err != nil {
		b.Fatal(err)
	}
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cut := full.Makespan / 2
	for _, c := range []struct {
		name string
		opt  sim.ProgramOptions
	}{
		{"healthy", sim.ProgramOptions{}},
		{"cut", sim.ProgramOptions{CutAt: cut, FailAt: map[schedule.Worker]int64{{Stage: 1, Pipeline: 5}: cut}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sim.ExecuteProgram(prog, c.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpliceReplayJob measures one Splice of the Fig 9 GPT-3 Medium
// iteration cut at half its makespan, where W5_1 dies: the splice
// replay-warm pays per membership event. The cut execution is taken once,
// outside the loop.
func BenchmarkSpliceReplayJob(b *testing.B) {
	eng := replayJobEngine(b)
	prog, err := eng.ProgramFor(nil)
	if err != nil {
		b.Fatal(err)
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
		Cut: cut, Fail: []schedule.Worker{victim},
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Splice(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayWarmJob measures one Replay of an hour-long churn trace on
// the warm Fig 9 GPT-3 Medium engine: machines A = 2 and C = 14 (stage 0 of
// pipelines 1 and 7) and B = 9 (stage 1 of pipeline 4) fail and re-join in
// the order A, B, A back, C, B back, C back, one event per seventh of the
// horizon — the shape of a replay-warm trace. One Replay outside the loop
// fills the engine's caches, so each iteration pays the splices and the
// DES, not the solver.
func BenchmarkReplayWarmJob(b *testing.B) {
	eng := replayJobEngine(b)
	const horizon = time.Hour
	tr := failure.Trace{Name: "churn", Total: 24, Steps: []failure.Step{{Available: 24}}}
	for k, ev := range []struct{ fail, rejoin []int }{{fail: []int{2}}, {fail: []int{9}}, {rejoin: []int{2}}, {fail: []int{14}}, {rejoin: []int{9}}, {rejoin: []int{14}}} {
		avail := tr.Steps[k].Available - len(ev.fail) + len(ev.rejoin)
		at := (2*time.Duration(k) + 1) * horizon / 14 // the middle of seventh k
		tr.Steps = append(tr.Steps, failure.Step{At: at, Available: avail, Failed: ev.fail, Rejoined: ev.rejoin})
	}
	opt := Options{Horizon: horizon, DetectDelay: 5 * time.Second, RejoinDelay: 2 * time.Second}
	res, err := Replay(eng, tr, opt)
	if err != nil {
		b.Fatal(err)
	}
	if res.SplicedCount() == 0 {
		b.Fatal("no event spliced mid-iteration")
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Replay(eng, tr, opt); err != nil {
			b.Fatal(err)
		}
	}
}
