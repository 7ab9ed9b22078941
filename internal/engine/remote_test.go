package engine_test

import (
	"math"
	"testing"

	"recycle/internal/dtrain"
	"recycle/internal/engine"
	"recycle/internal/planstore"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// TestRemoteProgramAgreement is the acceptance check for the versioned
// Program wire format: a Program compiled and replicated by one engine,
// fetched and decoded by a fetch-only Client (standing in for a fresh
// executor process that never saw the original), executes identically —
// first in the discrete-event simulator, then as a live dtrain runtime
// whose Program source is the Client instead of its own engine.
func TestRemoteProgramAgreement(t *testing.T) {
	store := planstore.New(3)
	job, stats := engine.ShapeJob(2, 2, 4)
	opts := engine.Options{UnrollIterations: 1, Store: store}
	failed := map[schedule.Worker]bool{{Stage: 1, Pipeline: 0}: true}

	// Coordinator side: solve, compile, replicate.
	eng := engine.New(job, stats, opts)
	compiled, err := eng.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}

	// Executor side: fetch-only client over the shared store — no solver,
	// no caches, just the versioned decode.
	client := engine.NewClient(store, job, stats, opts)
	fetched, err := client.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}
	if fetched == compiled {
		t.Fatal("client returned the coordinator's in-memory Program — not a store round-trip")
	}

	// Both artifacts must execute identically in the simulator:
	// instruction for instruction, same spans, same makespan.
	exA, err := sim.ExecuteProgram(compiled, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exB, err := sim.ExecuteProgram(fetched, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if exA.Makespan != exB.Makespan || exA.Completed != exB.Completed {
		t.Fatalf("decoded Program executes differently: makespan %d/%d vs %d/%d",
			exA.Makespan, exA.Completed, exB.Makespan, exB.Completed)
	}
	for i := range exA.Start {
		if exA.Start[i] != exB.Start[i] || exA.End[i] != exB.End[i] {
			t.Fatalf("instruction %d spans diverge: [%d,%d] vs [%d,%d]",
				i, exA.Start[i], exA.End[i], exB.Start[i], exB.End[i])
		}
	}
}

// TestRemoteExecutorRuntimeAgreement runs the same wire format through the
// live runtime: a coordinator runtime trains (compiling and replicating
// every Program it interprets), then a fresh runtime with identical
// weights replays the run fetching its Programs exclusively through a
// fetch-only Client over the shared store. Losses must agree bit-for-bit
// — the decoded artifact drives the exact same execution.
func TestRemoteExecutorRuntimeAgreement(t *testing.T) {
	cfg := dtrain.Config{
		DP: 2, PP: 2, MB: 2,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	victim := schedule.Worker{Stage: 1, Pipeline: 1}

	run := func(rt *dtrain.Runtime) []float64 {
		t.Helper()
		var losses []float64
		for i := 0; i < 2; i++ {
			l, err := rt.RunIteration()
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, l)
		}
		rt.Fail(victim)
		l, err := rt.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		return append(losses, l)
	}

	// Coordinator: compiles healthy and 1-failure Programs, replicating
	// both into its store.
	store := planstore.New(3)
	coordCfg := cfg
	coordCfg.Store = store
	coord := dtrain.New(coordCfg)
	want := run(coord)

	// Executor: identical weights (same seed), but every Program comes out
	// of the shared store via the fetch-only client — its own engine never
	// solves or compiles.
	execCfg := cfg
	execCfg.Store = store
	executor := dtrain.New(execCfg)
	job, stats := engine.ShapeJob(cfg.DP, cfg.PP, cfg.MB)
	executor.SetProgramSource(engine.NewClient(store, job, stats, engine.Options{UnrollIterations: 1}))
	got := run(executor)

	for i := range want {
		if math.Abs(want[i]-got[i]) != 0 {
			t.Fatalf("iteration %d loss diverged: coordinator %g, remote executor %g", i, want[i], got[i])
		}
	}
	if m := executor.PlanMetrics(); m.Solves != 0 || m.Compiles != 0 {
		t.Fatalf("executor solved %d / compiled %d — Programs must come from the store", m.Solves, m.Compiles)
	}
}
