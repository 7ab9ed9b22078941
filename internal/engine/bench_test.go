package engine

import (
	"testing"

	"recycle/internal/config"
	"recycle/internal/profile"
)

// benchJob is the 3.35B Table 1 preset (DP=8, PP=4) the solver-speed
// acceptance numbers are quoted on.
func benchJob(tb testing.TB) (config.Job, profile.Stats) {
	tb.Helper()
	job := config.Table1Jobs()[1]
	stats, err := profile.Analytic(job)
	if err != nil {
		tb.Fatal(err)
	}
	return job, stats
}

// planAllPeriods warms every count and returns the per-count periods.
func planAllPeriods(tb testing.TB, eng *Engine, maxF int) []int64 {
	tb.Helper()
	if err := eng.Warm(maxF).Wait(); err != nil {
		tb.Fatal(err)
	}
	out := make([]int64, maxF+1)
	for f := 0; f <= maxF; f++ {
		p, err := eng.Plan(f)
		if err != nil {
			tb.Fatal(err)
		}
		out[f] = p.PeriodSlots
	}
	return out
}

// TestWarmPlanAllMatchesScratch pins the warm path's correctness on the
// benchmark preset: the post-wipe re-derivation is all warm hits and every
// period is bit-identical to the scratch derivation.
func TestWarmPlanAllMatchesScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("3.35B offline phase in -short mode")
	}
	job, stats := benchJob(t)
	eng := New(job, stats, Options{UnrollIterations: 2})
	maxF := job.MaxPlannedFailures()
	scratch := planAllPeriods(t, eng, maxF)
	cold := eng.Metrics()
	eng.InvalidateCache()
	warm := planAllPeriods(t, eng, maxF)
	m := eng.Metrics()
	if resolves := m.Solves - cold.Solves; m.WarmHits != resolves || resolves == 0 {
		t.Fatalf("re-derivation: %d warm hits over %d re-solves, want all warm", m.WarmHits, resolves)
	}
	for f := range scratch {
		if warm[f] != scratch[f] {
			t.Errorf("f=%d: warm period %d != scratch %d", f, warm[f], scratch[f])
		}
	}
}

// BenchmarkPlanAllWarmStart times the offline phase scratch vs warm on the
// 3.35B preset. The acceptance bar is warm >= 5x faster than scratch; in
// practice the warm-identical path (hint validation, no solver state) runs
// more than an order of magnitude faster. Run with:
//
//	go test ./internal/engine/ -bench PlanAllWarmStart -run ^$
func BenchmarkPlanAllWarmStart(b *testing.B) {
	job, stats := benchJob(b)
	maxF := job.MaxPlannedFailures()

	b.Run("scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := New(job, stats, Options{UnrollIterations: 2})
			if err := eng.Warm(maxF).Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		eng := New(job, stats, Options{UnrollIterations: 2})
		want := planAllPeriods(b, eng, maxF)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.InvalidateCache()
			if err := eng.Warm(maxF).Wait(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		got := planAllPeriods(b, eng, maxF)
		for f := range want {
			if got[f] != want[f] {
				b.Fatalf("f=%d: warm period %d != scratch %d", f, got[f], want[f])
			}
		}
	})
}
