package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"recycle/internal/config"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// renameSets returns every 1- and 2-victim set of sh that leaves each stage
// a live worker, sorted.
func renameSets(sh schedule.Shape, pairs bool) [][]schedule.Worker {
	var ws []schedule.Worker
	for k := 0; k < sh.DP; k++ {
		for i := 0; i < sh.PP; i++ {
			ws = append(ws, schedule.Worker{Stage: i, Pipeline: k})
		}
	}
	var sets [][]schedule.Worker
	for a := range ws {
		sets = append(sets, []schedule.Worker{ws[a]})
		for b := a + 1; pairs && b < len(ws); b++ {
			if ws[a].Stage == ws[b].Stage && sh.DP < 3 {
				continue // the stage would lose every worker
			}
			set := []schedule.Worker{ws[a], ws[b]}
			schedule.SortWorkers(set)
			sets = append(sets, set)
		}
	}
	return sets
}

// checkRenames is the RenameProgram identity sweep on one engine: for every
// 1- (and, with pairs, 2-) victim set whose canonical form differs, the
// representative's Program renamed onto the set must encode to exactly
// Compile(RenamePipelines(...))'s bytes, carry a plain timeline a fresh
// walk reproduces, validate, and be what the engine serves for the set;
// and RenamePipelines must equal New over the renamed placements. It
// returns how many sets it checked.
func checkRenames(t *testing.T, label string, eng *Engine, pairs bool) int {
	t.Helper()
	sh, renamed := eng.Shape(), 0
	var walk schedule.Walk
	for _, ws := range renameSets(sh, pairs) {
		canon, perm, changed := eng.canonicalize(ws)
		if !changed {
			continue
		}
		renamed++
		name := fmt.Sprintf("%s %v (canonical %v)", label, ws, canon)
		rep, err := eng.PlanConcrete(canon)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rp, err := eng.CompiledProgram(rep)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inv := schedule.InvertPerm(perm)

		s := rep.Schedule
		rs := schedule.RenamePipelines(s, inv)
		ps := make([]schedule.Placement, len(s.Placements))
		for i, p := range s.Placements {
			p.Op.Home, p.Op.Exec = inv[p.Op.Home], inv[p.Op.Exec]
			ps[i] = p
		}
		slices.Reverse(ps) // New must sort them, whatever order they come in
		failed := make(map[schedule.Worker]bool, len(ws))
		for _, w := range ws {
			failed[w] = true
		}
		ref := schedule.New(s.Shape, s.Durations, failed, ps)
		if !slices.Equal(rs.Placements, ref.Placements) || !reflect.DeepEqual(rs.Failed, ref.Failed) {
			t.Fatalf("%s: RenamePipelines differs from New over the renamed placements", name)
		}

		want, err := schedule.Compile(rs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := want.SetCostTable(rp.CostTable()); err != nil {
			t.Fatal(err)
		}
		got := schedule.RenameProgram(s, rp, inv)
		wantBytes, err := EncodeProgram(want)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := EncodeProgram(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s: RenameProgram encodes %d bytes unlike Compile(RenamePipelines)'s %d", name, len(gotBytes), len(wantBytes))
		}

		start, end, makespan, ran := got.Plain()
		n := len(got.Instrs)
		freshStart, freshEnd := make([]int64, n), make([]int64, n)
		walk.Reset(got, schedule.Timing{Lat: got.Durations}, freshStart, freshEnd)
		walk.Run()
		if !slices.Equal(start, freshStart) || !slices.Equal(end, freshEnd) || makespan != walk.Makespan() || ran != walk.Ended() {
			t.Fatalf("%s: the carried plain timeline differs from a fresh walk", name)
		}
		walk.Clear()
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		served, err := eng.ProgramConcrete(ws)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if servedBytes, err := EncodeProgram(served); err != nil || !bytes.Equal(servedBytes, wantBytes) {
			t.Fatalf("%s: the engine serves other bytes than Compile(RenamePipelines) (%v)", name, err)
		}
	}
	return renamed
}

// TestRenameProgramMatchesCompile runs the identity sweep over shapes up to
// DP4×PP4×MB8 at unroll 1 and 2, under homogeneous costs and under a cost
// model that splits the pipelines into two classes, then over the Fig 9
// replay job's renamed sets.
func TestRenameProgramMatchesCompile(t *testing.T) {
	shapes := [][3]int{{2, 2, 2}, {3, 2, 4}, {2, 3, 3}, {3, 3, 4}, {4, 2, 4}, {4, 4, 8}}
	total := 0
	for _, dims := range shapes {
		for _, unroll := range []int{1, 2} {
			job, stats := ShapeJob(dims[0], dims[1], dims[2])
			two := profile.UniformCost(stats).
				WithWorkerScale(schedule.Worker{Stage: 0, Pipeline: 0}, 2).
				WithWorkerScale(schedule.Worker{Stage: 0, Pipeline: 1}, 2)
			for _, cm := range []*profile.CostModel{nil, two} {
				label := fmt.Sprintf("DP%d×PP%d×MB%d unroll %d costs %v", dims[0], dims[1], dims[2], unroll, cm != nil)
				total += checkRenames(t, label, New(job, stats, Options{UnrollIterations: unroll, CostModel: cm}), true)
			}
		}
	}
	job := config.Job{
		Model:    config.GPT3Medium,
		Parallel: config.Parallelism{DP: 12, PP: 2, TP: 1},
		Batch:    config.Batch{GlobalBatch: 8160, MicroBatch: 8},
		Hardware: config.A100x1,
	}
	stats, err := profile.Analytic(job)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := profile.CalibratedCost(job, stats)
	if err != nil {
		t.Fatal(err)
	}
	replayed := checkRenames(t, "replay job", New(job, stats, Options{UnrollIterations: 1, CostModel: cm}), !testing.Short() && !raceEnabled)
	t.Logf("%d renamed sets over the shapes, %d on the replay job", total, replayed)
}

// TestRenamedSetsCompileOnlyRepresentatives checks the Program path's
// class dedup end to end: after ProgramFor of every single victim, the
// engine has compiled one Program per victim orbit and cached no plan for
// a non-canonical set; every set's Program is in the store under its own
// key, where a Client fetches the bytes the engine serves; repeat fetches
// are cache hits that solve, compile and rename nothing more.
func TestRenamedSetsCompileOnlyRepresentatives(t *testing.T) {
	job, stats := ShapeJob(4, 3, 4)
	opts := Options{UnrollIterations: 1, Store: planstore.New(3)}
	eng := New(job, stats, opts)
	client := NewClient(opts.Store, job, stats, opts)
	sets := renameSets(eng.Shape(), false)
	served := make([]*schedule.Program, len(sets))
	orbits := 0
	for i, ws := range sets {
		if _, _, changed := eng.canonicalize(ws); !changed {
			orbits++
		}
		prog, err := eng.ProgramFor(map[schedule.Worker]bool{ws[0]: true})
		if err != nil {
			t.Fatal(err)
		}
		served[i] = prog
	}
	m := eng.Metrics()
	if m.Solves != uint64(orbits) || m.Compiles != uint64(orbits) || m.ClassDedups != uint64(len(sets)-orbits) {
		t.Fatalf("%d solves, %d compiles, %d class dedups; want %d, %d and %d", m.Solves, m.Compiles, m.ClassDedups, orbits, orbits, len(sets)-orbits)
	}
	for i, ws := range sets {
		_, _, changed := eng.canonicalize(ws)
		if _, ok := eng.cached(ckey(eng.conf.fp, ws)); ok == changed {
			t.Fatalf("%v: plan cached %v, want %v", ws, ok, !changed)
		}
		if _, found, err := opts.Store.Get(programKey(eng.conf.fp, ws)); err != nil || !found {
			t.Fatalf("%v: no Program in the store (%v)", ws, err)
		}
		fetched, err := client.ProgramFor(map[schedule.Worker]bool{ws[0]: true})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := EncodeProgram(served[i])
		if got, _ := EncodeProgram(fetched); !bytes.Equal(got, want) {
			t.Fatalf("%v: a Client fetched other bytes than the engine serves", ws)
		}
		if !reflect.DeepEqual(served[i].Failed, map[schedule.Worker]bool{ws[0]: true}) {
			t.Fatalf("%v: served a Program failing %v", ws, served[i].Failed)
		}
	}
	for i, ws := range sets {
		prog, err := eng.ProgramFor(map[schedule.Worker]bool{ws[0]: true})
		if err != nil {
			t.Fatal(err)
		}
		if prog != served[i] {
			t.Fatalf("%v: a repeat fetch served another Program", ws)
		}
	}
	again := eng.Metrics()
	if again.Solves != m.Solves || again.Compiles != m.Compiles || again.ClassDedups != m.ClassDedups {
		t.Fatalf("repeat fetches solved, compiled or renamed: %+v after %+v", again, m)
	}
	if hits := uint64(len(sets)); again.CacheHits-m.CacheHits != hits || again.ProgramHits-m.ProgramHits != hits {
		t.Fatalf("%d repeat fetches counted %d cache hits and %d Program hits", hits, again.CacheHits-m.CacheHits, again.ProgramHits-m.ProgramHits)
	}
}

// TestRenamedSetServesOneProgram checks that each concrete key has one
// *schedule.Program: ProgramConcrete, ProgramFor and CompiledProgram of
// PlanConcrete's renamed plan all return the same one, in either order,
// and the key counts one class dedup.
func TestRenamedSetServesOneProgram(t *testing.T) {
	asked := []schedule.Worker{{Stage: 1, Pipeline: 2}} // canonical: pipeline 0
	set := map[schedule.Worker]bool{asked[0]: true}
	job, stats := ShapeJob(3, 3, 4)
	for _, concreteFirst := range []bool{true, false} {
		eng := New(job, stats, Options{UnrollIterations: 1})
		var a, b *schedule.Program
		var err1, err2 error
		if concreteFirst {
			a, err1 = eng.ProgramConcrete(asked)
			b, err2 = eng.ProgramFor(set)
		} else {
			b, err2 = eng.ProgramFor(set)
			a, err1 = eng.ProgramConcrete(asked)
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Fatalf("ProgramConcrete first %v: ProgramConcrete and ProgramFor served two Programs", concreteFirst)
		}
		plan, err := eng.PlanConcrete(asked)
		if err != nil {
			t.Fatal(err)
		}
		if c, err := eng.CompiledProgram(plan); err != nil || c != a {
			t.Fatalf("ProgramConcrete first %v: the renamed plan's Program is another one (%v)", concreteFirst, err)
		}
		if m := eng.Metrics(); m.Solves != 1 || m.Compiles != 1 || m.ClassDedups != 1 {
			t.Fatalf("ProgramConcrete first %v: %d solves, %d compiles, %d class dedups; want 1 each", concreteFirst, m.Solves, m.Compiles, m.ClassDedups)
		}
	}
}
