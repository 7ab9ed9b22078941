package dtrain

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// deriveConfig is the shape the splice-derivation tests run on.
func deriveConfig() Config {
	return Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
}

// cutBeforeFirstStep returns a kill instant halfway to prog's first
// optimizer step, where a kill loses completed work and re-routes the rest.
func cutBeforeFirstStep(t *testing.T, prog *schedule.Program) int64 {
	t.Helper()
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := int64(-1)
	for i := range prog.Instrs {
		if prog.Type(i) == schedule.Optimizer && (first < 0 || full.Start[i] < first) {
			first = full.Start[i]
		}
	}
	return max(first/2, 1)
}

// executedBytes encodes the Program of an executed timeline.
func executedBytes(t *testing.T, ex *sim.Execution) []byte {
	t.Helper()
	data, err := engine.EncodeProgram(ex.Program)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosExecutorSplicesWithProgramCosts pins that a splice is a function
// of the Program and the event alone. A coordinator plans with a cost
// model that makes the victim's surviving peer a 2× straggler; an executor
// interprets the coordinator's Program through a fixed source, with a
// straggler-free engine of its own.
// Both run the same kill, and the spliced Programs they execute must encode
// to identical bytes: the re-routed ops are timed by the cost model the
// Program was solved with, never by the executor's own.
func TestChaosExecutorSplicesWithProgramCosts(t *testing.T) {
	cfg := deriveConfig()
	victim := schedule.Worker{Stage: 0, Pipeline: 1}
	peer := schedule.Worker{Stage: 0, Pipeline: 0}
	coord, exec := New(cfg), New(cfg)
	coord.SetProgramSource(costSource(cfg, profile.UniformCost(profile.Unit()).WithWorkerScale(peer, 2)))
	prog, err := coord.Program()
	if err != nil {
		t.Fatal(err)
	}
	exec.SetProgramSource(fixedSource{prog})
	kill := CascadeEvent{Cut: cutBeforeFirstStep(t, prog), Fail: []schedule.Worker{victim}}
	var losses [2]float64
	var planned [2]*sim.Execution
	for i, rt := range []*Runtime{coord, exec} {
		planned[i] = plannedTimeline(t, rt, kill)
		if losses[i], err = iterateWatched(t, rt, kill); err != nil {
			t.Fatalf("runtime %d: %v", i, err)
		}
	}
	if math.Float64bits(losses[0]) != math.Float64bits(losses[1]) {
		t.Fatalf("executor loss %v, coordinator %v", losses[1], losses[0])
	}
	spliced, starts := planned[0].Program, planned[0].Start
	rerouted := 0
	for i := range spliced.Instrs {
		if op := spliced.Op(i); op.Worker() == peer && op.Rerouted() && starts[i] >= kill.Cut {
			rerouted++
		}
	}
	if rerouted == 0 {
		t.Fatalf("the kill at %d re-routed nothing onto the straggler: the costs were never read", kill.Cut)
	}
	if want, got := executedBytes(t, planned[0]), executedBytes(t, planned[1]); !bytes.Equal(got, want) {
		t.Fatalf("the executor's spliced Program (%d bytes) differs from the coordinator's (%d bytes)", len(got), len(want))
	}
}

// costSource is an in-process plan service that solves and compiles for a
// runtime of cfg's shape under the cost model cm.
func costSource(cfg Config, cm *profile.CostModel) *engine.Engine {
	job, stats := engine.ShapeJob(cfg.DP, cfg.PP, cfg.MB)
	return engine.New(job, stats, engine.Options{CostModel: cm, UnrollIterations: 1})
}

// countingSource is a ProgramSource that counts the fetches it serves.
type countingSource struct {
	src     ProgramSource
	fetches int
}

func (s *countingSource) ProgramFor(failed map[schedule.Worker]bool) (*schedule.Program, error) {
	s.fetches++
	return s.src.ProgramFor(failed)
}

// TestChaosExecutorRederivesSplice is the remote-executor leg of a kill: an
// executor that fetches its Programs through an engine.Client over the
// coordinator's store is handed the kill and the digest of the coordinator's
// splice, derives the same splice itself, and trains on with losses bitwise
// equal to the coordinator's and to a fault-free run. The splice costs it
// no fetch: one per iteration, the in-flight Program, and the store holds
// nothing the kill added.
func TestChaosExecutorRederivesSplice(t *testing.T) {
	cfg := deriveConfig()
	ref := New(cfg)
	cfg.Store = planstore.New(3)
	coord, exec := New(cfg), New(cfg)
	job, stats := engine.ShapeJob(cfg.DP, cfg.PP, cfg.MB)
	src := &countingSource{src: engine.NewClient(cfg.Store, job, stats, engine.Options{UnrollIterations: 1})}
	exec.SetProgramSource(src)
	victim := schedule.Worker{Stage: 0, Pipeline: 1}
	for it := 0; it < 3; it++ {
		var kill []CascadeEvent
		var coordEx, execEx *sim.Execution
		if it == 1 {
			prog, err := coord.Program()
			if err != nil {
				t.Fatal(err)
			}
			kill = []CascadeEvent{{Cut: cutBeforeFirstStep(t, prog), Fail: []schedule.Worker{victim}}}
			coordEx, execEx = plannedTimeline(t, coord, kill...), plannedTimeline(t, exec, kill...)
		}
		want, err := iterateWatched(t, coord, kill...)
		if err != nil {
			t.Fatalf("coordinator iteration %d: %v", it, err)
		}
		keys, fetches := cfg.Store.Keys(), src.fetches
		if kill != nil {
			if kill[0].Digest, err = engine.ProgramDigest(coordEx.Program); err != nil {
				t.Fatal(err)
			}
		}
		got, err := iterateWatched(t, exec, kill...)
		if err != nil {
			t.Fatalf("executor iteration %d: %v", it, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iteration %d: executor loss %v, coordinator %v", it, got, want)
		}
		if refLoss, err := ref.RunIteration(); err != nil || math.Float64bits(refLoss) != math.Float64bits(want) {
			t.Fatalf("iteration %d: loss %v, fault-free %v (%v)", it, want, refLoss, err)
		}
		if n := src.fetches - fetches; n != 1 {
			t.Fatalf("iteration %d: the executor fetched %d Programs, want only the in-flight one", it, n)
		}
		if kill != nil {
			if after := cfg.Store.Keys(); !slices.Equal(after, keys) {
				t.Fatalf("the kill changed the store's keys from %q to %q", keys, after)
			}
			if !bytes.Equal(executedBytes(t, execEx), executedBytes(t, coordEx)) {
				t.Fatal("the executor interpreted a spliced Program other than the coordinator's")
			}
		}
	}
}

// TestChaosKillsLeaveStoreFlat pins that the failure path writes nothing to
// the plan store: 50 kill-and-rejoin cycles, each kill at another victim
// and cut, leave the store holding exactly the keys it held after the first
// healthy iteration, and every loss bitwise equal to a fault-free run.
func TestChaosKillsLeaveStoreFlat(t *testing.T) {
	cfg := deriveConfig()
	ref := New(cfg)
	cfg.Store = planstore.New(3)
	rt := New(cfg)
	step := func(events ...CascadeEvent) {
		t.Helper()
		got, err := iterateWatched(t, rt, events...)
		if err != nil {
			t.Fatalf("iteration %d (events %+v): %v", rt.iter, events, err)
		}
		want, err := ref.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iteration %d (events %+v): loss %v, fault-free %v", rt.iter-1, events, got, want)
		}
	}
	step()
	keys := cfg.Store.Keys()
	prog, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	workers, last := prog.Workers(), cutBeforeFirstStep(t, prog)*2
	const cycles = 50
	for i := 0; i < cycles; i++ {
		victim := workers[i%len(workers)]
		step(CascadeEvent{Cut: 1 + int64(i)%last, Fail: []schedule.Worker{victim}})
		if err := rt.Rejoin(victim); err != nil {
			t.Fatal(err)
		}
	}
	if after := cfg.Store.Keys(); !slices.Equal(after, keys) {
		t.Fatalf("after %d kills the store holds %d keys, %d after the first healthy iteration: %q", cycles, len(after), len(keys), after)
	}
}

// TestChaosKillWithoutStoreQuorum pins that a kill needs no store: with two
// of three replicas down, a kill iteration resumes from the splice it
// derived — losses bitwise equal to the fault-free run — and the plan
// service records no store error, because nothing was written or read.
func TestChaosKillWithoutStoreQuorum(t *testing.T) {
	cfg := deriveConfig()
	ref := New(cfg)
	cfg.Store = planstore.New(3)
	rt := New(cfg)
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
			got, err = iterateWatched(t, rt, CascadeEvent{Cut: 2, Fail: []schedule.Worker{{Stage: 0, Pipeline: 1}}})
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("iteration %d: loss %.17g diverged from the fault-free %.17g", i, got, want)
		}
	}
	if errs := rt.PlanMetrics().StoreErrors; errs != 0 {
		t.Fatalf("the kill left %d store errors, want 0", errs)
	}
}
