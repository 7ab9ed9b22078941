package solver

import (
	"testing"

	"recycle/internal/schedule"
)

// replayJob is one solve of the failure sets replay-cold pays for: the
// DP12×PP2×MB85 two-stage job with one worker down, every technique on.
func replayJob() Input {
	return Input{
		Shape:     schedule.Shape{DP: 12, PP: 2, MB: 85, Iter: 1},
		Durations: schedule.Durations{F: 1500, BInput: 1500, BWeight: 1500, Opt: 4000, Comm: 120},
		Failed:    map[schedule.Worker]bool{{Stage: 1, Pipeline: 5}: true},
		Decoupled: true,
		Staggered: true,
	}
}

// largeJob is a solve whose per-worker priority streams span several 64-bit
// words: PP8×DP4×MB64 over two iterations with three of its 32 workers
// down (10 % failures), every technique on.
func largeJob() Input {
	in := replayJob()
	in.Shape = schedule.Shape{DP: 4, PP: 8, MB: 64, Iter: 2}
	in.Failed = map[schedule.Worker]bool{{Stage: 1, Pipeline: 0}: true, {Stage: 4, Pipeline: 2}: true, {Stage: 7, Pipeline: 3}: true}
	return in
}

// BenchmarkSolveReplayJob measures one scratch solve of replayJob.
func BenchmarkSolveReplayJob(b *testing.B) {
	in := replayJob()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveLargeJob measures one scratch solve of largeJob.
func BenchmarkSolveLargeJob(b *testing.B) {
	in := largeJob()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSolveAllocationBudget gates what a warm scratch solve of replayJob
// allocates: at most 0.25 objects per task and 6 MB. The map-keyed solver
// paid 4.23 objects per task and 9.2 MB here; the dense one allocates the
// routing table, the fault-free skeleton, the placements the schedule keeps
// and the self-hint, and draws everything else from pooled scratch.
func TestSolveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	in := replayJob()
	s, err := Solve(in) // warm the scratch pools
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := Solve(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	tasks := len(s.Placements)
	per := float64(res.AllocsPerOp()) / float64(tasks)
	mb := float64(res.AllocedBytesPerOp()) / (1 << 20)
	if per > 0.25 || mb > 6 {
		t.Fatalf("a solve of %d tasks allocates %d objects (%.2f per task) and %.2f MB, budget 0.25 per task and 6 MB", tasks, res.AllocsPerOp(), per, mb)
	}
}
