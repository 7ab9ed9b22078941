package engine

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"recycle/internal/obs"
	"recycle/internal/planstore"
	"recycle/internal/schedule"
)

// TestProgramCachedAlongsidePlan checks the compiled-Program cache: the
// first fetch compiles, repeats are served from cache, and every consumer
// of one plan shares one Program.
func TestProgramCachedAlongsidePlan(t *testing.T) {
	job, stats := ShapeJob(3, 4, 6)
	eng := New(job, stats, Options{UnrollIterations: 1})
	failed := map[schedule.Worker]bool{{Stage: 2, Pipeline: 1}: true}

	p1, err := eng.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeat ProgramFor did not return the cached Program")
	}
	m := eng.Metrics()
	if m.Compiles != 1 {
		t.Fatalf("%d compiles for one schedule, want 1", m.Compiles)
	}
	if m.ProgramHits == 0 {
		t.Fatal("repeat fetch not counted as a program-cache hit")
	}

	// The plan-level accessor reaches the same cached artifact.
	plan, err := eng.PlanConcrete([]schedule.Worker{{Stage: 2, Pipeline: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := eng.CompiledProgram(plan)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("CompiledProgram did not share the ProgramFor cache")
	}
}

// TestProgramForHealthyFleet checks the n=0 path and the normalized
// Program accessor. A failed-worker map whose entries are all false names
// a healthy fleet too: planFor, ProgramFor and a Client's ProgramFor
// serve the healthy artifact for it.
func TestProgramForHealthyFleet(t *testing.T) {
	job, stats := ShapeJob(2, 2, 4)
	opts := Options{UnrollIterations: 1}
	eng := New(job, stats, opts)
	client := NewClient(eng.Store(), job, stats, opts)
	viaN, err := eng.Program(0)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := eng.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, failed := range []map[schedule.Worker]bool{nil, {{Stage: 0, Pipeline: 0}: false}} {
		p, err := eng.planFor(failed)
		if err != nil {
			t.Fatal(err)
		}
		if p != healthy {
			t.Fatalf("planFor(%v) served a plan failing %v, want the healthy one", failed, p.Failed)
		}
		viaFor, err := eng.ProgramFor(failed)
		if err != nil {
			t.Fatal(err)
		}
		if viaFor != viaN {
			t.Fatalf("ProgramFor(%v) and Program(0) compiled distinct artifacts for one plan", failed)
		}
		fetched, err := client.ProgramFor(failed)
		if err != nil {
			t.Fatal(err)
		}
		if len(fetched.Failed) != 0 || len(fetched.Instrs) != len(viaN.Instrs) {
			t.Fatalf("Client.ProgramFor(%v) fetched a Program failing %v, want the healthy one", failed, fetched.Failed)
		}
	}
}

// TestSolvedProgramsSoundAcrossFailureCounts is the faulted counterpart of
// the schedule package's property test: every Program compiled from a
// solved adaptive plan — any failure count the job tolerates, decoupled
// and staggered techniques on — validates as deadlock-free and
// edge-consistent.
func TestSolvedProgramsSoundAcrossFailureCounts(t *testing.T) {
	job, stats := ShapeJob(3, 3, 6)
	eng := New(job, stats, Options{UnrollIterations: 2})
	prop := func(nRaw uint8) bool {
		n := int(nRaw) % 5 // up to PP*(DP-1)-1 failures
		prog, err := eng.Program(n)
		if err != nil {
			t.Logf("n=%d: %v", n, err)
			return false
		}
		if err := prog.Validate(); err != nil {
			t.Logf("n=%d: %v", n, err)
			return false
		}
		for _, w := range prog.Workers() {
			if prog.Failed[w] {
				t.Logf("n=%d: failed worker %s has a stream", n, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// firstFetchRounds is how many fresh engines the concurrent first-fetch
// tests race on: a lost race shows in any one round, so many rounds make a
// regression fail the test almost surely rather than now and then.
const firstFetchRounds = 32

// concurrentProgramFor has n goroutines, released together, fetch the
// Program of one failed set on eng, and returns what each caller got.
func concurrentProgramFor(t *testing.T, eng *Engine, failed map[schedule.Worker]bool, n int) []*schedule.Program {
	t.Helper()
	progs, errs := make([]*schedule.Program, n), make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			progs[i], errs[i] = eng.ProgramFor(failed)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	return progs
}

// firstFetchEngine is the fresh engine each round of the concurrent
// first-fetch tests races on.
func firstFetchEngine() *Engine {
	job, stats := ShapeJob(4, 4, 8)
	return New(job, stats, Options{UnrollIterations: 1})
}

// TestConcurrentFirstFetchesShareOnePlan checks that a class-dedup rename
// is admitted first-wins: concurrent first fetches of one non-canonical
// failed set all get one Program, renamed from the one plan solved for
// the set's orbit representative, and no renamed plan is cached.
func TestConcurrentFirstFetchesShareOnePlan(t *testing.T) {
	orbit := map[schedule.Worker]bool{{Stage: 1, Pipeline: 3}: true} // canonical: pipeline 0
	for round := 0; round < firstFetchRounds; round++ {
		eng := firstFetchEngine()
		progs := concurrentProgramFor(t, eng, orbit, 16)
		for i, p := range progs {
			if p != progs[0] {
				t.Fatalf("round %d: caller %d got a different Program instance", round, i)
			}
		}
		if m := eng.Metrics(); m.Solves != 1 || m.Compiles != 1 || m.ClassDedups != 1 {
			t.Fatalf("round %d: %d solves, %d compiles, %d class dedups; want one solve compiled once and renamed once", round, m.Solves, m.Compiles, m.ClassDedups)
		}
		if _, ok := eng.cached(ckey(eng.conf.fp, workerList(orbit))); ok {
			t.Fatalf("round %d: a renamed plan was cached", round)
		}
	}
}

// TestConcurrentFirstFetchesCompileOnce checks that compiled() coalesces:
// concurrent first fetches of one cached plan's Program — what every
// caller coalesced on a solve does once it finishes — compile, encode and
// put it once.
func TestConcurrentFirstFetchesCompileOnce(t *testing.T) {
	failed := []schedule.Worker{{Stage: 1, Pipeline: 0}}
	for round := 0; round < firstFetchRounds; round++ {
		eng := firstFetchEngine()
		if _, err := eng.PlanConcrete(failed); err != nil {
			t.Fatal(err)
		}
		concurrentProgramFor(t, eng, map[schedule.Worker]bool{failed[0]: true}, 16)
		if m := eng.Metrics(); m.Compiles != 1 {
			t.Fatalf("round %d: 16 concurrent first fetches compiled %d times, want 1", round, m.Compiles)
		}
	}
}

// TestProgramConcreteClassDedup checks that a renamed plan gets its own
// Program, not its class representative's: ProgramConcrete on a victim set
// answered by a rename fails exactly the requested workers, and its
// streams skip exactly those.
func TestProgramConcreteClassDedup(t *testing.T) {
	job, stats := ShapeJob(3, 3, 4)
	eng := New(job, stats, Options{UnrollIterations: 1})
	canon := []schedule.Worker{{Stage: 1, Pipeline: 0}}
	asked := []schedule.Worker{{Stage: 1, Pipeline: 2}}
	rep, err := eng.ProgramConcrete(canon)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eng.ProgramConcrete(asked)
	if err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.Solves != 1 || m.ClassDedups != 1 {
		t.Fatalf("%d solves, %d class dedups; want the second set renamed from the first", m.Solves, m.ClassDedups)
	}
	if prog == rep {
		t.Fatal("the renamed set was served its representative's Program")
	}
	if want := map[schedule.Worker]bool{asked[0]: true}; !reflect.DeepEqual(prog.Failed, want) {
		t.Fatalf("Program fails %v, want %v", prog.Failed, want)
	}
	var live []schedule.Worker
	for k := 0; k < 3; k++ {
		for i := 0; i < 3; i++ {
			if w := (schedule.Worker{Stage: i, Pipeline: k}); w != asked[0] {
				live = append(live, w)
			}
		}
	}
	if !reflect.DeepEqual(prog.Workers(), live) {
		t.Fatalf("Program streams %v, want every worker but %v", prog.Workers(), asked[0])
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishSplicedProgramCountsFailures pins the publish path's error
// accounting: a publish to a healthy store counts nothing, and one to a
// store below quorum returns the error, counts one StoreErrors and records
// an EvPublish event carrying the cause.
func TestPublishSplicedProgramCountsFailures(t *testing.T) {
	job, stats := ShapeJob(2, 2, 4)
	store := planstore.New(3)
	eng := New(job, stats, Options{UnrollIterations: 1, Store: store})
	tr := obs.NewTrace()
	eng.SetRecorder(tr)
	prog, err := eng.Program(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.PublishSplicedProgram("kept", prog); err != nil {
		t.Fatal(err)
	}
	store.FailReplica(0)
	store.FailReplica(1)
	if err := eng.PublishSplicedProgram("lost", prog); err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("a publish below quorum returned %v", err)
	}
	if errs := eng.Metrics().StoreErrors; errs != 1 {
		t.Fatalf("%d store errors, want 1", errs)
	}
	var published, failed int
	for _, ev := range tr.Events() {
		if ev.Kind == obs.EvPublish {
			published++
			if strings.HasPrefix(ev.Detail, "lost: ") && strings.Contains(ev.Detail, "quorum") {
				failed++
			}
		}
	}
	if published != 2 || failed != 1 {
		t.Fatalf("%d EvPublish events, %d carrying the quorum error; want 2 and 1", published, failed)
	}
}

// TestProgramMatchesComparesCostTables pins the store-fetch guard on the
// cost table: a decoded Program lowers a schedule only under the cost model
// it carries, so an artifact stored under a reused key by an engine with
// another model is refused and recompiled.
func TestProgramMatchesComparesCostTables(t *testing.T) {
	labels, engines := CostModelEngines(t)
	for i, eng := range engines {
		plan, err := eng.Plan(0)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eng.CompiledProgram(plan)
		if err != nil {
			t.Fatal(err)
		}
		table := prog.CostTable()
		other := append([]int64(nil), table...)
		other[0]++
		for _, tc := range []struct {
			costs []int64
			want  bool
		}{{table, true}, {nil, false}, {other, false}} {
			if got := programMatches(prog, plan.Schedule, tc.costs); got != tc.want {
				t.Errorf("%s: programMatches under %d durations = %v, want %v", labels[i], len(tc.costs), got, tc.want)
			}
		}
	}
}
