package engine

import (
	"bytes"
	"fmt"
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
	opts := Options{UnrollIterations: 1, Store: planstore.New(3)}
	eng := New(job, stats, opts)
	client := NewClient(opts.Store, job, stats, opts)
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

// TestPeakActivationsAtTheLiveShape pins the in-flight activation peaks
// the engine's Programs plan at DP4×PP4×MB8, one iteration: 1F1B's PP-i on
// stage i of every pipeline when no worker is down, and the adapted
// Program's peaks with W0_1 failed (-1 marks the failed worker, which
// holds no stream). A runtime's activation stash high-water is measured
// against these.
func TestPeakActivationsAtTheLiveShape(t *testing.T) {
	job, stats := ShapeJob(4, 4, 8)
	eng := New(job, stats, Options{UnrollIterations: 1})
	for _, c := range []struct {
		failed map[schedule.Worker]bool
		want   [4][4]int // [stage][pipeline]
	}{
		{nil, [4][4]int{{4, 4, 4, 4}, {3, 3, 3, 3}, {2, 2, 2, 2}, {1, 1, 1, 1}}},
		{map[schedule.Worker]bool{{Stage: 1, Pipeline: 0}: true}, [4][4]int{{6, 4, 4, 4}, {-1, 7, 9, 8}, {5, 2, 2, 2}, {5, 1, 1, 1}}},
	} {
		prog, err := eng.ProgramFor(c.failed)
		if err != nil {
			t.Fatal(err)
		}
		peaks := prog.PeakActivations()
		var got [4][4]int
		for i := range got {
			for k := range got[i] {
				w := schedule.Worker{Stage: i, Pipeline: k}
				if got[i][k] = -1; len(prog.Stream(w)) > 0 {
					got[i][k] = peaks[w]
				}
			}
		}
		if got != c.want {
			t.Errorf("failed %v: peaks by [stage][pipeline] %v, want %v", c.failed, got, c.want)
		}
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
		if en := eng.lookup(ckey(eng.conf.fp, workerList(orbit))); en.plan.Load() != nil {
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

// TestRenamedPlanRacesProgramFetches checks the merged admission of a
// class-dedup renamed key: PlanConcrete racing ProgramFor and
// ProgramConcrete on one non-canonical set, from 16 goroutines released
// together, admits one entry. Every caller gets one Program (or one Plan),
// the key counts one class dedup, and the renamed plan's CompiledProgram
// is that Program.
func TestRenamedPlanRacesProgramFetches(t *testing.T) {
	asked := []schedule.Worker{{Stage: 1, Pipeline: 3}} // canonical: pipeline 0
	set := map[schedule.Worker]bool{asked[0]: true}
	for round := 0; round < firstFetchRounds; round++ {
		eng := firstFetchEngine()
		const n = 16
		plans, progs, errs := make([]*Plan, n), make([]*schedule.Program, n), make([]error, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				switch i % 3 {
				case 0:
					plans[i], errs[i] = eng.PlanConcrete(asked)
				case 1:
					progs[i], errs[i] = eng.ProgramFor(set)
				default:
					progs[i], errs[i] = eng.ProgramConcrete(asked)
				}
			}(i)
		}
		close(start)
		wg.Wait()
		var plan *Plan
		var prog *schedule.Program
		for i := range n {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if p := plans[i]; p != nil && plan == nil {
				plan = p
			}
			if p := progs[i]; p != nil && prog == nil {
				prog = p
			}
			if (plans[i] != nil && plans[i] != plan) || (progs[i] != nil && progs[i] != prog) {
				t.Fatalf("round %d: caller %d got another Plan or Program instance", round, i)
			}
		}
		if m := eng.Metrics(); m.Solves != 1 || m.Compiles != 1 || m.ClassDedups != 1 {
			t.Fatalf("round %d: %d solves, %d compiles, %d class dedups; want 1 each", round, m.Solves, m.Compiles, m.ClassDedups)
		}
		if c, err := eng.CompiledProgram(plan); err != nil || c != prog {
			t.Fatalf("round %d: the renamed plan's Program is another one (%v)", round, err)
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
	labels, engines := CostModelEngines(t, nil)
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

// TestStorelessEngineServesSamePrograms checks that an engine without a
// store serves the Programs an engine with a shared store does, byte for
// byte: the healthy Program and the Program of every single victim on
// DP4×PP3. Without a store it compiles once per orbit (the healthy plan
// and each canonical victim set), renames the rest, counts no store
// traffic and has nowhere to publish a splice.
func TestStorelessEngineServesSamePrograms(t *testing.T) {
	job, stats := ShapeJob(4, 3, 4)
	shared := New(job, stats, Options{UnrollIterations: 1, Store: planstore.New(3)})
	local := New(job, stats, Options{UnrollIterations: 1})
	encode := func(at string, p *schedule.Program, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		data, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		return data
	}
	want, err := shared.Program(0)
	got, err2 := local.Program(0)
	if !bytes.Equal(encode("shared Program(0)", want, err), encode("local Program(0)", got, err2)) {
		t.Fatal("Program(0): the store-less engine's bytes differ from the shared-store engine's")
	}
	orbits := map[string]bool{"healthy": true}
	for stage := range 3 {
		for pipeline := range 4 {
			w := schedule.Worker{Stage: stage, Pipeline: pipeline}
			failed := map[schedule.Worker]bool{w: true}
			canon, _, _ := local.canonicalize([]schedule.Worker{w})
			orbits[fmt.Sprint(canon)] = true
			want, err := shared.ProgramFor(failed)
			got, err2 := local.ProgramFor(failed)
			if !bytes.Equal(encode(w.String()+" shared", want, err), encode(w.String()+" local", got, err2)) {
				t.Errorf("%s failed: the store-less engine's bytes differ from the shared-store engine's", w)
			}
		}
	}
	m := local.Metrics()
	if m.Compiles != uint64(len(orbits)) || m.StoreHits != 0 || m.StoreErrors != 0 {
		t.Fatalf("store-less engine: %d compiles for %d orbits, %d store hits, %d store errors; want %d, 0, 0",
			m.Compiles, len(orbits), m.StoreHits, m.StoreErrors, len(orbits))
	}
	if err := local.PublishSplicedProgram("nowhere", got); err == nil {
		t.Fatal("a store-less engine published a spliced Program")
	}
	if errs := local.Metrics().StoreErrors; errs != 0 {
		t.Fatalf("a publish without a store counted %d store errors", errs)
	}
}

// TestClientDecodesOncePerDistinctBytes pins the Client's decode memo:
// equal bytes return the same Program, other bytes under the key decode
// to a new one, corrupt or empty bytes fail with the decode error and
// leave the memo as it was, and concurrent fetches share one Program.
func TestClientDecodesOncePerDistinctBytes(t *testing.T) {
	job, stats := ShapeJob(2, 2, 4)
	opts := Options{UnrollIterations: 1, Store: planstore.New(3)}
	eng := New(job, stats, opts)
	client := NewClient(opts.Store, job, stats, opts)
	if _, err := eng.ProgramFor(nil); err != nil {
		t.Fatal(err)
	}
	first, err := client.ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := client.ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("a fetch of unchanged bytes decoded a new Program")
	}

	// Other valid bytes under the same key: the degraded Program's.
	degraded, err := eng.ProgramFor(map[schedule.Worker]bool{{Stage: 0, Pipeline: 0}: true})
	if err != nil {
		t.Fatal(err)
	}
	other, err := EncodeProgram(degraded)
	if err != nil {
		t.Fatal(err)
	}
	key := programKey(client.fp, nil)
	if err := opts.Store.Put(key, other); err != nil {
		t.Fatal(err)
	}
	swapped, err := client.ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeProgram(other)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeProgram(swapped)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeProgram(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if swapped == first || !bytes.Equal(got, want) {
		t.Fatal("re-put bytes did not yield a new Program equal to DecodeProgram's")
	}

	// Corrupt bytes: the decode error comes back and the memo stays.
	if err := opts.Store.Put(key, other[:len(other)/2]); err != nil {
		t.Fatal(err)
	}
	_, wantErr := DecodeProgram(other[:len(other)/2])
	if _, err := client.ProgramFor(nil); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("a fetch of corrupt bytes returned %v, want the decode error %v", err, wantErr)
	}
	if client.prog != swapped || !bytes.Equal(client.data, other) {
		t.Fatal("a failed decode replaced the memo")
	}
	if err := opts.Store.Put(key, other); err != nil {
		t.Fatal(err)
	}
	if p, err := client.ProgramFor(nil); err != nil || p != swapped {
		t.Fatalf("bytes equal to the memo's after a failed decode: %p, %v; want the memoized %p", p, err, swapped)
	}

	// A fresh Client has decoded nothing, so empty bytes are no match.
	fresh := NewClient(opts.Store, job, stats, opts)
	if err := opts.Store.Put(key, nil); err != nil {
		t.Fatal(err)
	}
	if p, err := fresh.ProgramFor(nil); err == nil {
		t.Fatalf("a fresh Client served %p for empty bytes", p)
	}
	if err := opts.Store.Put(key, other); err != nil {
		t.Fatal(err)
	}

	// Concurrent first fetches share one decode.
	var wg sync.WaitGroup
	progs := make([]*schedule.Program, 8)
	errs := make([]error, len(progs))
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[i], errs[i] = fresh.ProgramFor(nil)
		}()
	}
	wg.Wait()
	for i := range progs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if progs[i] != progs[0] {
			t.Fatalf("concurrent fetch %d decoded its own Program", i)
		}
	}
}
