package dtrain

import (
	"runtime"
	"testing"
)

// TestIterationAllocationBudget pins what a warm fault-free iteration may
// allocate at the benchmark's live shape: the timeline is memoized, the
// router's table and the tensor arenas are recycled, and weight gradients
// reach the all-reduce through their contribution slots — no per-stage
// store, no broadcast copies — so what is left is the per-phase goroutines
// and the few per-op bookkeeping objects, not the tensors and not the
// transport.
func TestIterationAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rt := New(Config{
		DP: 4, PP: 4, MB: 8,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 4,
		Seed: 1, LR: 1e-2,
	})
	iterate := func() {
		if _, err := rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		iterate()
	}
	prog, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	instrs := float64(len(prog.Instrs))

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, iterate)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call of its own before the counted ones.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)

	t.Logf("%.0f instrs: %.0f allocs (%.2f per instr), %.1f KB per iteration", instrs, allocs, allocs/instrs, bytes/1024)
	if got := allocs / instrs; got > 1.6 {
		t.Errorf("a warm iteration allocates %.2f objects per instruction, budget 1.6", got)
	}
	if bytes > 32<<10 {
		t.Errorf("a warm iteration allocates %.1f KB, budget 32 KB", bytes/1024)
	}
}
