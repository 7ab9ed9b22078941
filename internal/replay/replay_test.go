package replay

import (
	"reflect"
	"testing"
	"time"

	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// testTrace is a fixed GCP-style availability trace for the 12-worker
// 3x4x6 shape: failures dipping to 9 with re-joins, several boundaries
// landing mid-iteration.
func testTrace() failure.Trace {
	m := func(s int) time.Duration { return time.Duration(s) * time.Second }
	return failure.Trace{
		Name:  "gcp-style-12",
		Total: 12,
		Steps: []failure.Step{
			{At: 0, Available: 12}, {At: m(101), Available: 11}, {At: m(203), Available: 10},
			{At: m(307), Available: 9}, {At: m(431), Available: 10}, {At: m(577), Available: 12},
			{At: m(701), Available: 11}, {At: m(857), Available: 12},
		},
	}
}

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	job, stats := engine.ShapeJob(3, 4, 6)
	return engine.New(job, stats, engine.Options{UnrollIterations: 1})
}

// TestReplayGolden is the replay golden test: the fixed trace above must
// reproduce a stable outcome — deterministic across runs, iteration count
// within tolerance of the pinned value, every membership event spliced
// (not boundary-aligned), and stalls strictly emergent (nonzero only
// because instructions were lost or re-planned).
func TestReplayGolden(t *testing.T) {
	tr := testTrace()
	horizon := 20 * time.Minute
	run := func() *Result {
		res, err := Replay(testEngine(t), tr, Options{Horizon: horizon, DetectDelay: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	// Unit-cost 3x4x6 iterations are ~31 slots = ~31s; 20 minutes hold
	// ~36 iterations minus the emergent event costs. The tolerance admits
	// solver tuning, not regressions that drop whole windows.
	if res.Iterations < 30 || res.Iterations > 40 {
		t.Fatalf("golden iteration count %d outside [30,40]", res.Iterations)
	}
	if len(res.Events) != 7 {
		t.Fatalf("replay saw %d membership events, trace has 7", len(res.Events))
	}
	fails, rejoins, spliced := 0, 0, 0
	for _, ev := range res.Events {
		switch ev.Kind {
		case "fail":
			fails++
		case "rejoin":
			rejoins++
		}
		if ev.ResumedMidIteration {
			spliced++
		}
	}
	if fails != 4 || rejoins != 3 {
		t.Fatalf("got %d failures and %d re-joins, want 4 and 3", fails, rejoins)
	}
	// Most boundaries land inside an iteration and splice; the occasional
	// one aligns exactly with an iteration end and switches plans instead.
	if spliced < 5 {
		t.Fatalf("only %d of %d events spliced mid-iteration", spliced, len(res.Events))
	}
	if res.StallSeconds <= 0 {
		t.Fatal("no emergent stall over a trace full of mid-iteration events")
	}
	if res.LostSlots <= 0 {
		t.Fatal("mid-iteration failures discarded no completed work")
	}
	if res.Average <= 0 || res.Samples <= 0 {
		t.Fatalf("degenerate throughput: %+v", res)
	}
	// Deterministic: a second replay (fresh engine, fresh caches) agrees
	// event for event.
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Fatalf("replay is not deterministic:\n%+v\nvs\n%+v", res, again)
	}
}

// TestReplayRejoinMidIteration pins the headline behavior on the DES
// path: a re-join whose trace boundary lands inside an iteration splices
// the in-flight Program and the repaired worker resumes before the
// boundary — visible as a spliced rejoin event and a post-event failure
// set excluding the worker.
func TestReplayRejoinMidIteration(t *testing.T) {
	m := func(s int) time.Duration { return time.Duration(s) * time.Second }
	tr := failure.Trace{
		Name:  "one-rejoin",
		Total: 12,
		Steps: []failure.Step{{At: 0, Available: 11}, {At: m(107), Available: 12}},
	}
	res, err := Replay(testEngine(t), tr, Options{Horizon: 5 * time.Minute, RejoinDelay: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 {
		t.Fatalf("got %d events, want 1", len(res.Events))
	}
	ev := res.Events[0]
	if ev.Kind != "rejoin" || len(ev.Workers) != 1 {
		t.Fatalf("unexpected event %+v", ev)
	}
	if !ev.ResumedMidIteration {
		t.Fatal("re-join waited for the iteration boundary instead of splicing in")
	}
	if ev.ReplannedOps == 0 {
		t.Fatal("re-join event re-planned no work")
	}
	if ev.LostOps != 0 {
		t.Fatalf("a re-join discarded %d completed ops; only failures lose work", ev.LostOps)
	}
}

// TestReplayStallsEmergeFromLostWork compares the same trace with and
// without mid-iteration failures: the version with failures must carry
// lost slots and stall seconds, and its average throughput must be lower
// — the Fig 9 stall signal, produced by instruction loss alone.
func TestReplayStallsEmergeFromLostWork(t *testing.T) {
	m := func(s int) time.Duration { return time.Duration(s) * time.Second }
	horizon := 10 * time.Minute
	flat := failure.Trace{Name: "flat", Total: 12, Steps: []failure.Step{{At: 0, Available: 12}}}
	faulty := failure.Trace{
		Name:  "faulty",
		Total: 12,
		Steps: []failure.Step{{At: 0, Available: 12}, {At: m(151), Available: 11}, {At: m(313), Available: 10}},
	}
	base, err := Replay(testEngine(t), flat, Options{Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := Replay(testEngine(t), faulty, Options{Horizon: horizon, DetectDelay: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if base.StallSeconds != 0 || base.LostSlots != 0 || len(base.Events) != 0 {
		t.Fatalf("flat trace produced stalls: %+v", base)
	}
	if hit.LostSlots == 0 || hit.StallSeconds == 0 {
		t.Fatalf("failures produced no emergent cost: %+v", hit)
	}
	if hit.Average >= base.Average {
		t.Fatalf("faulty average %.2f not below fault-free %.2f", hit.Average, base.Average)
	}
}

// TestReplayIdentityRoundTrip pins the retrofitted machine identities end
// to end: the victims a replay splices out (and the machines it splices
// back in) are exactly the identities the trace's windows carry, in
// order, with workers derived by MachineWorker — no victim-selection
// heuristic anywhere. Monotonic and GCP both round-trip.
func TestReplayIdentityRoundTrip(t *testing.T) {
	check := func(t *testing.T, eng *engine.Engine, tr failure.Trace, horizon time.Duration) {
		t.Helper()
		res, err := Replay(eng, tr, Options{Horizon: horizon, DetectDelay: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		windows, err := tr.Windows(horizon)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Events) != len(windows)-1 {
			t.Fatalf("replay saw %d events, trace has %d membership changes", len(res.Events), len(windows)-1)
		}
		pp := eng.Job().Parallel.PP
		for i, ev := range res.Events {
			w := windows[i+1]
			want := append(append([]int(nil), w.Failed...), w.Rejoined...)
			if !reflect.DeepEqual(ev.Machines, want) {
				t.Fatalf("event %d machines %v, trace window says %v", i, ev.Machines, want)
			}
			for j, id := range ev.Machines {
				if got := MachineWorker(id, pp); ev.Workers[j] != got {
					t.Fatalf("event %d worker %v for machine %d, want %v", i, ev.Workers[j], id, got)
				}
			}
		}
	}
	t.Run("monotonic", func(t *testing.T) {
		tr := failure.Monotonic(12, 90*time.Second, 10*time.Minute)
		check(t, testEngine(t), tr, 10*time.Minute)
	})
	t.Run("gcp", func(t *testing.T) {
		job, stats := engine.ShapeJob(3, 8, 8) // 24 unit-cost workers, the GCP fleet size
		eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
		check(t, eng, failure.GCP(), 2*time.Hour)
	})
}

// TestReplayMigrationsReported checks the migration metric: a
// mid-iteration failure moves at least one whole micro-batch triple to a
// peer, the per-event counts sum to the result total, and triples only
// migrate where ops were re-routed.
func TestReplayMigrationsReported(t *testing.T) {
	m := func(s int) time.Duration { return time.Duration(s) * time.Second }
	tr := failure.Trace{
		Name:  "two-fails",
		Total: 12,
		Steps: []failure.Step{{At: 0, Available: 12}, {At: m(151), Available: 11}, {At: m(313), Available: 10}},
	}
	res, err := Replay(testEngine(t), tr, Options{Horizon: 10 * time.Minute, DetectDelay: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.MigratedTriples == 0 {
		t.Fatal("mid-iteration failures migrated no micro-batch triples")
	}
	sum := 0
	for _, ev := range res.Events {
		sum += ev.MigratedTriples
		if ev.MigratedTriples > 0 && ev.ReroutedOps == 0 {
			t.Fatalf("event at %v migrated %d triples without re-routing any op", ev.At, ev.MigratedTriples)
		}
		if ev.ReroutedOps > 0 && ev.MigratedTriples == 0 {
			t.Fatalf("event at %v re-routed %d ops but reports no migrated triple", ev.At, ev.ReroutedOps)
		}
	}
	if sum != res.MigratedTriples {
		t.Fatalf("migrated triples %d != sum over events %d", res.MigratedTriples, sum)
	}
}

// TestReplayRejectsUnrolledEngine pins the chaining granularity contract.
func TestReplayRejectsUnrolledEngine(t *testing.T) {
	job, stats := engine.ShapeJob(2, 2, 4)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 3})
	if _, err := Replay(eng, testTrace(), Options{Horizon: time.Minute}); err == nil {
		t.Fatal("an unrolled engine was accepted")
	}
}

// TestReplayHonorsCostModel replays under a heterogeneous cost model: kept
// spans must last their cost under it (Splice would fail otherwise),
// and the slower fleet yields a longer effective iteration than uniform.
func TestReplayHonorsCostModel(t *testing.T) {
	job, stats := engine.ShapeJob(3, 4, 6)
	cm := profile.UniformCost(stats).WithStageScale([]float64{1, 1, 2, 1})
	slow := engine.New(job, stats, engine.Options{UnrollIterations: 1, CostModel: cm})
	uniform := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	tr := failure.Trace{
		Name:  "one-fail",
		Total: 12,
		Steps: []failure.Step{{At: 0, Available: 12}, {At: 97 * time.Second, Available: 11}},
	}
	horizon := 8 * time.Minute
	a, err := Replay(slow, tr, Options{Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(uniform, tr, Options{Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	if a.Iterations >= b.Iterations {
		t.Fatalf("scaled stage did not slow the replay: %d vs %d iterations", a.Iterations, b.Iterations)
	}
	var _ schedule.CostFunc = cm.Fn() // the model drives splice validation
}
