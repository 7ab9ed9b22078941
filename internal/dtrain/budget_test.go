package dtrain

import (
	"runtime"
	"runtime/debug"
	"testing"

	"recycle/internal/schedule"
)

// liveShape is the benchmark's live shape: DP4×PP4×MB8, 272 instructions.
func liveShape() Config {
	return Config{
		DP: 4, PP: 4, MB: 8,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 4,
		Seed: 1, LR: 1e-2,
	}
}

// measureAllocs returns the objects and bytes one call of op allocates,
// warm. testing.AllocsPerRun runs at GOMAXPROCS 1, where a sync.Pool item
// another P parked is out of reach, so the warm-up runs under it too. The
// collector is held off from the warm-up on: a collection would empty the
// pools and charge the measured calls for refilling them.
func measureAllocs(op func()) (objs, bytes float64) {
	const runs = 20
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	testing.AllocsPerRun(5, op)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objs = testing.AllocsPerRun(runs, op)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call of its own before the counted ones.
	return objs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// TestIterationAllocationBudget pins what a warm fault-free iteration may
// allocate at the benchmark's live shape. The timeline is memoized, and
// everything an iteration holds is scratch it hands back at the boundary:
// the router's slot table and reduce view, the stages' stash slabs and
// tensor arenas, Input's generators. The router, its barriers and the
// phase state are the Runtime's own. So what is left is one object per
// goroutine a phase spawns.
func TestIterationAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rt := New(liveShape())
	iterate := func() {
		if _, err := rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	instrs := float64(len(prog.Instrs))
	allocs, bytes := measureAllocs(iterate)
	t.Logf("%.0f instrs: %.0f allocs (%.2f per instr), %.1f KB per iteration", instrs, allocs, allocs/instrs, bytes/1024)
	if got := allocs / instrs; got > 0.1 {
		t.Errorf("a warm iteration allocates %.2f objects per instruction, budget 0.1", got)
	}
	if bytes > 4<<10 {
		t.Errorf("a warm iteration allocates %.1f KB, budget 4 KB", bytes/1024)
	}
}

// killOp returns the benchmark's kill op on a healthy rt: victim killed
// at an admissible boundary of its own compute — the middle one, or pick
// places after it, modulo their number — restored at the boundary, then
// one healthy iteration. The op returns both losses.
func killOp(tb testing.TB, rt *Runtime, victim schedule.Worker, pick int) (op func() (kill, post float64), cut int64) {
	tb.Helper()
	victims := []schedule.Worker{victim}
	c, err := rt.newChain()
	if err != nil {
		tb.Fatal(err)
	}
	cands := killCandidates(&c, victims, KillBetweenOps, false, rt.Cfg.PP)
	if len(cands) == 0 {
		tb.Fatal("no admissible kill")
	}
	cut = cands[(len(cands)/2+pick)%len(cands)]
	return func() (kill, post float64) {
		var err error
		if kill, err = rt.RunIterationFailure(victims, cut); err != nil {
			tb.Fatal(err)
		}
		if err = rt.Rejoin(victim); err != nil {
			tb.Fatal(err)
		}
		if post, err = rt.RunIteration(); err != nil {
			tb.Fatal(err)
		}
		return kill, post
	}, cut
}

// TestKillIterationAllocationBudget pins what the benchmark's kill op
// allocates at the live shape. The splice and its timeline are the
// kill's own; the re-joiner's optimizer takes the donor's state in place.
func TestKillIterationAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rt := New(liveShape())
	kill, cut := killOp(t, rt, schedule.Worker{Stage: 1, Pipeline: 2}, 0)
	allocs, bytes := measureAllocs(func() { kill() })
	t.Logf("kill at slot %d: %.0f allocs, %.1f KB per op", cut, allocs, bytes/1024)
	// It reads 77–79 objects and 24.0–24.2 KB: the phases' goroutines
	// (47) and the splice. The budgets are that plus 10 %.
	const budgetAllocs, budgetKB = 87, 27
	if allocs > budgetAllocs {
		t.Errorf("a warm kill op allocates %.0f objects, budget %d", allocs, budgetAllocs)
	}
	if bytes > budgetKB<<10 {
		t.Errorf("a warm kill op allocates %.1f KB, budget %d KB", bytes/1024, budgetKB)
	}
}

// TestStashSlabsServeInterleavedRuntimes runs two runtimes of different
// shapes iteration by iteration, so every stash slab, slot table and arena
// chunk moves between stages of both through their pools; one of them takes a mid-iteration kill every other iteration (a
// discarded, re-run forward and a mid-run Reset on the re-joiner) and is
// restored at the boundary. Every loss must equal a fault-free run's, bit
// for bit, and no stage may hold a stash past a boundary.
func TestStashSlabsServeInterleavedRuntimes(t *testing.T) {
	a := Config{DP: 2, PP: 2, MB: 4, InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4, Seed: 5, LR: 1e-2}
	b := Config{DP: 3, PP: 3, MB: 3, InDim: 5, Hidden: 7, OutDim: 2, MicroBatchSize: 3, Seed: 9, LR: 1e-2}
	const iters = 8
	refA, refB := New(a), New(b)
	rtA, rtB := New(a), New(b)
	idle := func(rt *Runtime, name string, it int) {
		for w, st := range rt.stages {
			if n := st.PendingStashes(); n != 0 {
				t.Fatalf("iteration %d: %s worker %s holds %d stashes past the boundary", it, name, w, n)
			}
		}
	}
	// run steps a runtime by two iterations; a kill op on odd turns.
	run := func(rt *Runtime, turn int) [2]float64 {
		if turn%2 == 1 {
			kill, _ := killOp(t, rt, schedule.Worker{Stage: 1, Pipeline: turn % rt.Cfg.DP}, turn)
			l1, l2 := kill()
			return [2]float64{l1, l2}
		}
		var out [2]float64
		for i := range out {
			var err error
			if out[i], err = rt.RunIteration(); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for turn := 0; turn < iters/2; turn++ {
		la, lb := run(rtA, turn), run(rtB, 0)
		if wa, wb := run(refA, 0), run(refB, 0); la != wa || lb != wb {
			t.Fatalf("turn %d: losses %v/%v, fault-free %v/%v", turn, la, lb, wa, wb)
		}
		idle(rtA, "A", turn)
		idle(rtB, "B", turn)
	}
}

// BenchmarkLiveIteration times one warm fault-free iteration at the live
// shape, what the steady workload runs per op.
func BenchmarkLiveIteration(b *testing.B) {
	rt := New(liveShape())
	if _, err := rt.RunIteration(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := rt.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveKillIteration times the kill workload's op at the live
// shape: one worker killed mid-iteration, restored at the boundary, then
// one healthy iteration.
func BenchmarkLiveKillIteration(b *testing.B) {
	kill, _ := killOp(b, New(liveShape()), schedule.Worker{Stage: 1, Pipeline: 2}, 0)
	b.ReportAllocs()
	for b.Loop() {
		kill()
	}
}
