package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"recycle/internal/config"
	"recycle/internal/obs"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// fetchLog is a recorder that logs the failed-set size of every ProgramFor
// in the order the fetches begin, signals began for each of its first
// fetches, and holds each fetch until gate is closed.
type fetchLog struct {
	began chan struct{}
	gate  chan struct{}

	mu    sync.Mutex
	sizes []int
}

func newFetchLog(fetches int, gate chan struct{}) *fetchLog {
	return &fetchLog{began: make(chan struct{}, fetches), gate: gate}
}

func (r *fetchLog) Enabled() bool                          { return true }
func (r *fetchLog) Span(obs.Span)                          {}
func (r *fetchLog) BeginProgram(string, *schedule.Program) {}
func (r *fetchLog) Event(ev obs.Event) {
	if ev.Kind != obs.EvPlanFetch {
		return
	}
	r.mu.Lock()
	r.sizes = append(r.sizes, int(ev.Attrs[0].Val))
	r.mu.Unlock()
	select {
	case r.began <- struct{}{}:
	default:
	}
	<-r.gate
}

// fetched returns the logged sizes.
func (r *fetchLog) fetched() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.sizes)
}

// poolFetching reports whether a goroutine of an engine's worker pool is
// inside a fetch. One that has signalled its exit but not yet returned is
// not: the runtime may deschedule it there, after its last act.
func poolFetching() bool {
	stacks := make([]byte, 1<<20)
	for _, g := range bytes.Split(stacks[:runtime.Stack(stacks, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("engine.(*Engine).pool")) && bytes.Contains(g, []byte("engine.(*Engine).ProgramFor")) {
			return true
		}
	}
	return false
}

// newPoolEngine builds an engine whose worker pool is procs wide: the pool
// is as wide as GOMAXPROCS at New.
func newPoolEngine(procs int, job config.Job, stats profile.Stats) *Engine {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return New(job, stats, Options{UnrollIterations: 1})
}

// TestPrefetchStopWaits runs Prefetch on pools 1, 2 and 4 wide over eight cold
// failed sets of distinct sizes (set i fails stage 1 of pipelines 0..i-1).
// A full pass fetches every set once — in sets order with one worker — and
// leaves each Program a cache hit. A pass stopped while every worker holds
// its first fetch must not return from Stop before those fetches finish,
// must claim nothing after Stop, must leave no pool goroutine fetching and
// must start no solve afterwards.
func TestPrefetchStopWaits(t *testing.T) {
	job, stats := ShapeJob(8, 2, 8)
	sets := make([]map[schedule.Worker]bool, 8)
	for i := range sets {
		sets[i] = map[schedule.Worker]bool{}
		for p := range i {
			sets[i][schedule.Worker{Stage: 1, Pipeline: p}] = true
		}
	}
	open := make(chan struct{})
	close(open)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := newPoolEngine(workers, job, stats)
			log := newFetchLog(len(sets), open)
			eng.SetRecorder(log)
			w := eng.Prefetch(sets)
			if err := w.wait(); err != nil {
				t.Fatal(err)
			}
			got := log.fetched()
			if workers > 1 {
				slices.Sort(got)
			}
			if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(got, want) {
				t.Fatalf("fetched sets of sizes %v, want %v", got, want)
			}
			m := eng.Metrics()
			for _, set := range sets {
				if _, err := eng.ProgramFor(set); err != nil {
					t.Fatal(err)
				}
			}
			if after := eng.Metrics(); after.Solves != m.Solves || after.Compiles != m.Compiles {
				t.Fatalf("fetches after the pass solved %d and compiled %d times, want cache hits", after.Solves-m.Solves, after.Compiles-m.Compiles)
			}

			eng = newPoolEngine(workers, job, stats)
			gate := make(chan struct{})
			log = newFetchLog(len(sets), gate)
			eng.SetRecorder(log)
			w = eng.Prefetch(sets)
			for range workers {
				<-log.began
			}
			stopped := make(chan struct{})
			go func() {
				w.Stop()
				close(stopped)
			}()
			for !w.stopped.Load() {
				runtime.Gosched()
			}
			select {
			case <-stopped:
				t.Fatal("Stop returned while its fetches were in flight")
			default:
			}
			close(gate)
			<-stopped
			m = eng.Metrics()
			if poolFetching() {
				t.Fatal("a pool goroutine outlived Stop")
			}
			got = log.fetched()
			slices.Sort(got)
			if want := []int{0, 1, 2, 3}[:workers]; !slices.Equal(got, want) {
				t.Fatalf("a pass stopped after its first claims fetched sets of sizes %v, want %v", got, want)
			}
			for range 100 {
				runtime.Gosched()
			}
			if after := eng.Metrics().Solves; after != m.Solves {
				t.Fatalf("%d solves started after Stop returned", after-m.Solves)
			}
		})
	}
}

// TestPlanConcreteClassDedup checks symmetry breaking end to end: under
// homogeneous costs all pipelines are interchangeable, so concrete victim
// sets that differ only by the victim's pipeline share one solve. Every
// returned plan must carry its own requested victims and validate.
func TestPlanConcreteClassDedup(t *testing.T) {
	job, stats := analyticJob(t)
	eng := New(job, stats, Options{UnrollIterations: 2})

	a := []schedule.Worker{{Stage: 0, Pipeline: 1}}
	b := []schedule.Worker{{Stage: 0, Pipeline: 2}}
	pa, err := eng.PlanConcrete(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := eng.PlanConcrete(b)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if m.Solves != 1 {
		t.Fatalf("two class-equivalent concrete requests took %d solves, want 1", m.Solves)
	}
	if m.ClassDedups < 1 {
		t.Fatalf("ClassDedups = %d, want >= 1", m.ClassDedups)
	}
	for i, pair := range []struct {
		want []schedule.Worker
		plan *Plan
	}{{a, pa}, {b, pb}} {
		if len(pair.plan.Failed) != 1 || pair.plan.Failed[0] != pair.want[0] {
			t.Fatalf("plan %d failed set %v, want %v", i, pair.plan.Failed, pair.want)
		}
		if !pair.plan.Schedule.Failed[pair.want[0]] {
			t.Fatalf("plan %d schedule does not mark %v failed", i, pair.want[0])
		}
		if err := schedule.Validate(pair.plan.Schedule, schedule.ValidateConfig{}); err != nil {
			t.Fatalf("plan %d schedule invalid: %v", i, err)
		}
	}
	if pa.PeriodSlots != pb.PeriodSlots {
		t.Fatalf("isomorphic plans disagree on period: %d vs %d", pa.PeriodSlots, pb.PeriodSlots)
	}

	// The same victim set again is a plain cache hit — no new dedup.
	if _, err := eng.PlanConcrete(b); err != nil {
		t.Fatal(err)
	}
	if m2 := eng.Metrics(); m2.Solves != 1 || m2.CacheHits == m.CacheHits {
		t.Fatalf("repeat concrete request: solves %d (want 1), cache hits %d -> %d (want a hit)", m2.Solves, m.CacheHits, m2.CacheHits)
	}

	// A stage-1 victim in every pipeline: one class, so DP requests cost
	// one solve and every other request is a rename of it.
	eng = New(job, stats, Options{UnrollIterations: 2})
	dp := job.Parallel.DP
	var first *Plan
	for p := 0; p < dp; p++ {
		w := schedule.Worker{Stage: 1, Pipeline: p}
		plan, err := eng.PlanConcrete([]schedule.Worker{w})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Failed) != 1 || plan.Failed[0] != w || !plan.Schedule.Failed[w] {
			t.Fatalf("victim %v: plan fails %v", w, plan.Failed)
		}
		if first == nil {
			first = plan
		} else if plan.PeriodSlots != first.PeriodSlots {
			t.Fatalf("victim %v: period %d, class representative %d", w, plan.PeriodSlots, first.PeriodSlots)
		}
	}
	if m := eng.Metrics(); m.Solves != 1 || m.ClassDedups < uint64(dp-1) {
		t.Fatalf("%d stage-1 victims: %d solves (want 1), %d class dedups (want >= %d)", dp, m.Solves, m.ClassDedups, dp-1)
	}
}
