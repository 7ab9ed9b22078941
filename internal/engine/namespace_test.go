package engine

import (
	"reflect"
	"testing"

	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/solver"
)

// TestNamespaceIgnoresWhatTheSolverNeverReads checks that two engines whose
// jobs differ only in a field the solver never reads — the model's name —
// share one namespace: the second serves a failure set by decoding the
// first's Program out of the store, without solving or compiling it.
func TestNamespaceIgnoresWhatTheSolverNeverReads(t *testing.T) {
	store := planstore.New(3)
	job, stats := ShapeJob(3, 2, 4)
	failed := map[schedule.Worker]bool{{Stage: 1, Pipeline: 0}: true}
	a := New(job, stats, Options{UnrollIterations: 1, Store: store})
	if _, err := a.ProgramFor(failed); err != nil {
		t.Fatal(err)
	}
	job.Model.Name = "renamed"
	b := New(job, stats, Options{UnrollIterations: 1, Store: store})
	if _, err := b.ProgramFor(failed); err != nil {
		t.Fatal(err)
	}
	if m := b.Metrics(); m.StoreHits != 1 || m.Compiles != 0 {
		t.Fatalf("renamed job: %d store hits, %d compiles; want the other engine's Program decoded (1, 0)", m.StoreHits, m.Compiles)
	}
}

// TestNamespaceSeparatesWhatTheSolverReads checks that configurations
// differing in anything the solver reads — unroll window, technique
// toggles, per-stage memory caps, cost model, a straggler mark included —
// never share a namespace, while cost models that tabulate alike (worker
// scales set in either order) do.
func TestNamespaceSeparatesWhatTheSolverReads(t *testing.T) {
	job, stats := ShapeJob(3, 2, 4)
	capped := stats
	capped.MemCapPerStage = []int{4, 2}
	none := Techniques{}
	slow, other := schedule.Worker{Stage: 1, Pipeline: 2}, schedule.Worker{Stage: 0, Pipeline: 1}
	uniform := profile.UniformCost(stats)
	straggler := uniform.WithWorkerScale(slow, 2).WithWorkerScale(other, 1.5)
	configs := []struct {
		name  string
		stats profile.Stats
		opts  Options
	}{
		{"default", stats, Options{}},
		{"unroll 1", stats, Options{UnrollIterations: 1}},
		{"adaptive pipelining alone", stats, Options{Techniques: &none}},
		{"capped", capped, Options{}},
		{"uniform model", stats, Options{CostModel: uniform}},
		{"straggler", stats, Options{CostModel: straggler}},
		{"staged", stats, Options{CostModel: uniform.WithStageScale([]float64{1, 2})}},
	}
	seen := make(map[string]string)
	for _, c := range configs {
		fp := newConf(job, c.stats, c.opts).fp
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s shares namespace %s with %s", c.name, fp, prev)
		}
		seen[fp] = c.name
	}
	reordered := uniform.WithWorkerScale(other, 1.5).WithWorkerScale(slow, 2)
	if a, b := newConf(job, stats, Options{CostModel: straggler}).fp, newConf(job, stats, Options{CostModel: reordered}).fp; a != b {
		t.Errorf("the order worker scales were set in moves the namespace: %s vs %s", a, b)
	}
}

// TestFingerprintCoversSolverInput is a tripwire: the fingerprint encodes
// every field of solver.Input but the failed set, each technique toggle,
// and the shape and durations field by field. A new field in any of them
// must enter Planner.fingerprint (key.go) before this count moves, or
// engines that solve differently would share a namespace.
func TestFingerprintCoversSolverInput(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		fields int
	}{
		{reflect.TypeOf(solver.Input{}), 7},
		{reflect.TypeOf(Techniques{}), 2},
		{reflect.TypeOf(schedule.Shape{}), 4},
		{reflect.TypeOf(schedule.Durations{}), 5},
	} {
		if n := c.typ.NumField(); n != c.fields {
			t.Errorf("%s has %d fields, the fingerprint encodes %d: encode the new field in Planner.fingerprint (key.go), then update this count", c.typ, n, c.fields)
		}
	}
}
