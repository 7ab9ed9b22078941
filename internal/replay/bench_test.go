package replay

import (
	"math"
	"runtime"
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
func replayJobEngine(tb testing.TB) *engine.Engine {
	job := config.Job{
		Model:    config.GPT3Medium,
		Parallel: config.Parallelism{DP: 12, PP: 2, TP: 1},
		Batch:    config.Batch{GlobalBatch: 8160, MicroBatch: 8},
		Hardware: config.A100x1,
	}
	stats, err := profile.Analytic(job)
	if err != nil {
		tb.Fatal(err)
	}
	cm, err := profile.CalibratedCost(job, stats)
	if err != nil {
		tb.Fatal(err)
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

// churnStep is one membership event of a churn trace: the machines failing
// and re-joining at an instant.
type churnStep struct {
	at           time.Duration
	fail, rejoin []int
}

// replayJobTrace returns a trace of the given events on the Fig 9 GPT-3
// Medium job's 24 machines, all up at the start, and the options its
// replays run under.
func replayJobTrace(name string, steps ...churnStep) (failure.Trace, Options) {
	tr := failure.Trace{Name: name, Total: 24, Steps: []failure.Step{{Available: 24}}}
	for _, st := range steps {
		avail := tr.Steps[len(tr.Steps)-1].Available - len(st.fail) + len(st.rejoin)
		tr.Steps = append(tr.Steps, failure.Step{At: st.at, Available: avail, Failed: st.fail, Rejoined: st.rejoin})
	}
	return tr, Options{Horizon: time.Hour, DetectDelay: 5 * time.Second, RejoinDelay: 2 * time.Second}
}

// warmChurnTrace is replay-warm's shape of trace: over an hour, machines
// A = 2 and C = 14 (stage 0 of pipelines 1 and 7) and B = 9 (stage 1 of
// pipeline 4) fail and re-join in the order A, B, A back, C, B back, C
// back, one event in the middle of each seventh of the horizon. Every event
// splices a 12.5 s iteration, and no two land in the same one.
func warmChurnTrace() (failure.Trace, Options) {
	var steps []churnStep
	for k, ev := range []churnStep{{fail: []int{2}}, {fail: []int{9}}, {rejoin: []int{2}}, {fail: []int{14}}, {rejoin: []int{9}}, {rejoin: []int{14}}} {
		ev.at = (2*time.Duration(k) + 1) * time.Hour / 14
		steps = append(steps, ev)
	}
	return replayJobTrace("churn", steps...)
}

// warmReplayJob returns the Fig 9 GPT-3 Medium engine warmed by one Replay
// of tr: its caches hold every window's Program, and each Program has
// memoized its plain timeline, so a later Replay of tr pays the splices —
// each timed on the walk it drives itself — and the cuts projected off
// their chains, not the solver and not a plain walk. The warming Replay's
// result comes back with the engine.
func warmReplayJob(tb testing.TB, tr failure.Trace, opt Options) (*engine.Engine, *Result) {
	eng := replayJobEngine(tb)
	res, err := Replay(eng, tr, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if res.SplicedCount() == 0 {
		tb.Fatal("no event spliced mid-iteration")
	}
	return eng, res
}

// benchmarkReplay times a warm Replay of tr on eng.
func benchmarkReplay(b *testing.B, eng *engine.Engine, tr failure.Trace, opt Options) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Replay(eng, tr, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayWarmJob measures one warm Replay of warmChurnTrace: six
// splices, none of them cut again, so none is numbered — the quantity
// replay-warm times.
func BenchmarkReplayWarmJob(b *testing.B) {
	tr, opt := warmChurnTrace()
	eng, _ := warmReplayJob(b, tr, opt)
	benchmarkReplay(b, eng, tr, opt)
}

// BenchmarkReplayChainedJob measures one warm Replay of chainedChurnTrace,
// whose two pairs of events each land in one iteration: the first splice
// of each pair is numbered before the second cuts it.
func BenchmarkReplayChainedJob(b *testing.B) {
	tr, opt := chainedChurnTrace()
	eng, res := warmReplayJob(b, tr, opt)
	if ev := res.Events; len(ev) != 4 || ev[0].Iteration != ev[1].Iteration || ev[2].Iteration != ev[3].Iteration {
		b.Fatalf("the event pairs do not land in one iteration each: %+v", ev)
	}
	benchmarkReplay(b, eng, tr, opt)
}

// chainedChurnTrace fails machines A = 2 and B = 9 two seconds apart a
// quarter into an hour, and re-joins them two seconds apart three quarters
// in: each pair lands in one 12.5 s iteration.
func chainedChurnTrace() (failure.Trace, Options) {
	const h, gap = time.Hour, 2 * time.Second
	return replayJobTrace("chained",
		churnStep{at: h / 4, fail: []int{2}}, churnStep{at: h/4 + gap, fail: []int{9}},
		churnStep{at: 3 * h / 4, rejoin: []int{2}}, churnStep{at: 3*h/4 + gap, rejoin: []int{9}})
}

// TestReplayWarmAllocationBudget gates the bytes one warm Replay of
// warmChurnTrace allocates: BenchmarkReplayWarmJob's quantity, whose
// splices are never cut again and so are never numbered. Numbering each
// of them, as Splice does, allocated 2.24–2.33 MB a Replay; a Replay that
// defers the numbering reads 1.78–1.85 MB.
func TestReplayWarmAllocationBudget(t *testing.T) {
	const maxBytes = 1_950_000
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	tr, opt := warmChurnTrace()
	eng, _ := warmReplayJob(t, tr, opt)
	replay := func() {
		if _, err := Replay(eng, tr, opt); err != nil {
			t.Fatal(err)
		}
	}
	replay() // warm the scratch pools
	// The least of three batches: a collection that empties the pools
	// mid-batch charges the batch for refilling them.
	const batches, runs = 3, 10
	bytes := math.Inf(1)
	for range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			replay()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	t.Logf("a warm Replay allocates %.0f bytes", bytes)
	if bytes > maxBytes {
		t.Errorf("a warm Replay allocates %.0f bytes, budget %d", bytes, maxBytes)
	}
}
