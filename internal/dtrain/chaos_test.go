package dtrain

import (
	"fmt"
	"strings"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/obs"
	"recycle/internal/planstore"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// TestChaosBitwiseLosses is the acceptance matrix for the chaos-ready
// interpreter: seeded kills at every kill-point class, with one or two
// victims, across pipeline depths — every run must produce bitwise-equal
// per-iteration losses against its fault-free reference. Short mode (the
// CI chaos-smoke step runs it under -race) keeps one seed and a reduced
// case set.
func TestChaosBitwiseLosses(t *testing.T) {
	type shape struct{ pp, victims int }
	shapes := []shape{{2, 1}, {2, 2}, {4, 1}, {4, 2}}
	points := []KillPoint{KillAtSend, KillBetweenOps, KillDuringAllReduce, KillInEpilogue}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		shapes = []shape{{2, 1}, {4, 2}}
		seeds = []int64{1}
	}
	for _, sh := range shapes {
		for _, pt := range points {
			for _, seed := range seeds {
				sh, pt, seed := sh, pt, seed
				t.Run(fmt.Sprintf("pp%d_v%d_%s_seed%d", sh.pp, sh.victims, pt, seed), func(t *testing.T) {
					t.Parallel()
					cfg := Config{
						DP: 2, PP: sh.pp, MB: 4,
						InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
						Seed: 11, LR: 1e-2,
					}
					res, err := Chaos(cfg, ChaosOptions{
						Seed: seed, Iterations: 3, KillIter: 1,
						Victims: sh.victims, Point: pt,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Victims) != sh.victims {
						t.Fatalf("killed %d workers, want %d", len(res.Victims), sh.victims)
					}
					if res.Cut < 1 {
						t.Fatalf("kill landed at slot %d, not mid-iteration", res.Cut)
					}
					if res.Event == "" {
						t.Fatal("no splice event recorded")
					}
					if !res.BitwiseEqual() {
						t.Fatalf("losses diverge from fault-free run:\nchaos %v\nref   %v\n(victims %v, cut %d)",
							res.Losses, res.RefLosses, res.Victims, res.Cut)
					}
				})
			}
		}
	}
}

// TestChaosRejectsDegenerateOptions pins the harness guards: impossible
// victim counts, inverted iteration bounds and fleets with no killable
// worker are rejected up front.
func TestChaosRejectsDegenerateOptions(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	if _, err := Chaos(cfg, ChaosOptions{Seed: 1, Iterations: 1, KillIter: 1, Victims: 1}); err == nil {
		t.Fatal("kill iteration beyond the run was accepted")
	}
	if _, err := Chaos(cfg, ChaosOptions{Seed: 1, Iterations: 2, KillIter: 0, Victims: 0}); err == nil {
		t.Fatal("zero victims was accepted")
	}
	// A 2x2 fleet keeping every stage live can lose at most 2 workers.
	if _, err := Chaos(cfg, ChaosOptions{Seed: 1, Iterations: 2, KillIter: 0, Victims: 3}); err == nil {
		t.Fatal("more victims than the fleet can survive was accepted")
	}
	solo := cfg
	solo.DP = 1
	if _, err := Chaos(solo, ChaosOptions{Seed: 1, Iterations: 2, KillIter: 0, Victims: 1}); err == nil {
		t.Fatal("killing the only replica of a stage was accepted")
	}
}

// TestChaosSplicedProgramServedToClients closes the engine leg of the
// tentpole: the spliced Program a coordinator builds for a live
// mid-iteration kill is published through the plan service's replicated
// store, and a fetch-only engine.Client pulls the instruction-identical
// artifact by the splice event ID — a remote executor can interpret the
// post-event suffix without re-splicing.
func TestChaosSplicedProgramServedToClients(t *testing.T) {
	store := planstore.New(3)
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
		Store: store,
	}
	rt := New(cfg)
	victims := []schedule.Worker{{Stage: 0, Pipeline: 1}}

	prog, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	minOpt := int64(-1)
	for i := range prog.Instrs {
		if prog.Op(i).Type == schedule.Optimizer {
			if minOpt < 0 || full.Start[i] < minOpt {
				minOpt = full.Start[i]
			}
		}
	}
	cut := minOpt / 2
	if cut < 1 {
		cut = 1
	}
	if _, err := rt.RunIterationFailure(victims, cut); err != nil {
		t.Fatal(err)
	}
	event := SpliceEventID(rt.Iteration()-1, cut, victims, nil)

	job, stats := engine.ShapeJob(cfg.DP, cfg.PP, cfg.MB)
	client := engine.NewClient(store, job, stats, engine.Options{UnrollIterations: 1})
	fetched, err := client.SplicedProgram(event)
	if err != nil {
		t.Fatal(err)
	}
	executed, _, _ := rt.ExecutedTimeline()
	if fetched == executed {
		t.Fatal("client returned the coordinator's in-memory Program — not a store round-trip")
	}
	if len(fetched.Instrs) != len(executed.Instrs) {
		t.Fatalf("fetched spliced Program has %d instructions, coordinator executed %d", len(fetched.Instrs), len(executed.Instrs))
	}
	for i := range fetched.Instrs {
		if fetched.Op(i) != executed.Op(i) {
			t.Fatalf("instruction %d differs: fetched %s vs executed %s", i, fetched.Op(i), executed.Op(i))
		}
	}
	if _, err := client.SplicedProgram("iter9/cut9/fail9.9/rejoin"); err == nil {
		t.Fatal("fetching an unpublished splice event succeeded")
	}
}

// TestFailedSplicePublishIsCounted pins the one store write of the failure
// path: with the plan store below quorum a kill iteration still resumes
// from its in-memory splice — losses bitwise equal to the fault-free run —
// and the publish that could not replicate is on record: one store error,
// one EvPublish event carrying the cause.
func TestFailedSplicePublishIsCounted(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	ref := New(cfg)
	cfg.Store = planstore.New(3)
	rt := New(cfg)
	tr := obs.NewTrace()
	rt.AttachRecorder(tr)
	for i := 0; i < 2; i++ {
		want, err := ref.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		var got float64
		if i == 0 {
			got, err = rt.RunIteration() // warms the engine: the kill iteration's fetch never reads the store
			cfg.Store.FailReplica(0)
			cfg.Store.FailReplica(1)
		} else {
			got, err = rt.RunIterationFailure([]schedule.Worker{{Stage: 0, Pipeline: 1}}, 2)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iteration %d: loss %.17g diverged from the fault-free %.17g", i, got, want)
		}
		if errs := rt.PlanMetrics().StoreErrors; errs != uint64(i) {
			t.Fatalf("after iteration %d: %d store errors, want %d", i, errs, i)
		}
	}
	var failed int
	for _, ev := range tr.Events() {
		if ev.Kind == obs.EvPublish && strings.Contains(ev.Detail, "quorum") {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d EvPublish events carry the quorum error, want 1", failed)
	}
}

// TestKillPointRoundTrip pins the CLI spelling of the kill points.
func TestKillPointRoundTrip(t *testing.T) {
	for _, pt := range []KillPoint{KillAtSend, KillBetweenOps, KillDuringAllReduce, KillInEpilogue} {
		got, err := ParseKillPoint(pt.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != pt {
			t.Fatalf("round trip %s -> %s", pt, got)
		}
	}
	if _, err := ParseKillPoint("never"); err == nil {
		t.Fatal("unknown kill point accepted")
	}
}
