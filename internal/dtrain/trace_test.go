package dtrain

import (
	"slices"
	"strings"
	"testing"

	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// segmentNamed returns the first segment of tr labelled label, or nil.
func segmentNamed(tr *obs.Trace, label string) *obs.Segment {
	for _, g := range tr.Segments() {
		if g.Label == label {
			return g
		}
	}
	return nil
}

// TestTraceAgreementLiveVsDES extends the executor-agreement property to
// the recorded traces: the live runtime and the DES, interpreting the same
// faulted Program, must record span sets with identical instruction
// identities, dependency edges, and logical spans — the recorder observes
// the shared IR, it does not perturb it.
func TestTraceAgreementLiveVsDES(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5,
		Seed: 42, LR: 1e-2,
	}
	rt := New(cfg)
	liveRec := obs.NewTrace()
	rt.AttachRecorder(liveRec)
	rt.Fail(schedule.Worker{Stage: 2, Pipeline: 1})
	prog := plannedTimeline(t, rt).Program
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}

	desRec := obs.NewTrace()
	if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: desRec, TraceLabel: "des"}); err != nil {
		t.Fatal(err)
	}

	live, des := segmentNamed(liveRec, "iter0"), segmentNamed(desRec, "des")
	if live == nil || des == nil {
		t.Fatalf("missing segments: live=%v des=%v", live, des)
	}
	if live.Len() != len(prog.Instrs) || des.Len() != len(prog.Instrs) {
		t.Fatalf("span counts: live %d, des %d, program %d", live.Len(), des.Len(), len(prog.Instrs))
	}
	for id := range prog.Instrs {
		ls, ok := live.Span(id)
		if !ok {
			t.Fatalf("live trace missing instruction %d", id)
		}
		ds, ok := des.Span(id)
		if !ok {
			t.Fatalf("DES trace missing instruction %d", id)
		}
		if ls.Op != ds.Op {
			t.Fatalf("instruction %d: live op %s != DES op %s", id, ls.Op, ds.Op)
		}
		if len(ls.Deps) != len(ds.Deps) {
			t.Fatalf("instruction %d: live has %d deps, DES %d", id, len(ls.Deps), len(ds.Deps))
		}
		for j := range ls.Deps {
			if ls.Deps[j] != ds.Deps[j] {
				t.Fatalf("instruction %d dep %d: live %+v != DES %+v", id, j, ls.Deps[j], ds.Deps[j])
			}
		}
		if ls.Start != ds.Start || ls.End != ds.End || ls.Sched != ds.Sched {
			t.Fatalf("instruction %d (%s): live span sched=%d [%d,%d) != DES sched=%d [%d,%d)",
				id, ls.Op, ls.Sched, ls.Start, ls.End, ds.Sched, ds.Start, ds.End)
		}
		if ds.Actual != 0 {
			t.Fatalf("instruction %d: virtual-time span claims wall time %v", id, ds.Actual)
		}
	}
	var measured int
	for _, s := range live.Spans() {
		if s.Actual > 0 {
			measured++
		}
	}
	if measured == 0 {
		t.Fatal("live trace measured no wall-clock compute time at all")
	}
	// The kill and the plan fetch precede the iteration; its own events
	// run from iter-start to iter-end.
	evs := liveRec.Events()
	if i := slices.IndexFunc(evs, func(e obs.Event) bool { return e.Kind == obs.EvIterStart }); i < 0 || i == len(evs)-1 ||
		evs[len(evs)-1].Kind != obs.EvIterEnd {
		t.Fatalf("live iteration not bracketed by iter-start/iter-end: %v", evs)
	}
}

// TestChaosCriticalPathGolden is the spliced-trace golden test: under a
// fixed chaos seed, the trace splits the kill iteration into pre-splice
// and post-splice segments, the critical-path attribution tiles both (the
// post-splice one tiling the full iteration makespan via its frozen prefix
// spans), and the recorded cut falls inside the post-splice timeline.
func TestChaosCriticalPathGolden(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	rec := obs.NewTrace()
	res, err := Chaos(cfg, ChaosOptions{
		Seed: 1, Iterations: 4, KillIter: 2, Victims: 1, Point: KillBetweenOps,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BitwiseEqual() {
		t.Fatal("chaos run diverged; trace assertions would be meaningless")
	}
	cut, event := res.Kills[0].Cut, res.Kills[0].Event

	pre, post := segmentNamed(rec, "iter2/pre-splice"), segmentNamed(rec, "iter2/post-splice")
	if pre == nil || post == nil {
		t.Fatalf("spliced iteration did not record both phases; segments: %v", rec)
	}
	if pre.Makespan() > cut {
		t.Fatalf("pre-splice spans run past the cut: makespan %d > cut %d", pre.Makespan(), cut)
	}

	preRep, err := obs.CriticalPath(pre)
	if err != nil {
		t.Fatal(err)
	}
	postRep, err := obs.CriticalPath(post)
	if err != nil {
		t.Fatal(err)
	}
	if !preRep.Tiles() || !postRep.Tiles() {
		t.Fatalf("tiling failed: pre %v post %v", preRep, postRep)
	}
	if postRep.Makespan != post.Makespan() {
		t.Fatalf("post-splice attribution covers %d of %d slots", postRep.Makespan, post.Makespan())
	}

	// The post-splice segment owes its full-iteration coverage to the
	// frozen prefix installed from the splice's Done set.
	var frozen, beforeCut int
	for _, s := range post.Spans() {
		if s.Frozen {
			frozen++
			if s.End > cut {
				t.Fatalf("frozen span %d ends at %d, after the cut %d", s.Instr, s.End, cut)
			}
		}
		if s.End <= cut {
			beforeCut++
		}
	}
	if frozen == 0 {
		t.Fatal("post-splice segment has no frozen prefix spans")
	}
	// The frozen prefix is the splice's kept Done set: at most what the
	// pre-splice phase executed (completed work stranded on a lost
	// dependency chain is re-executed live, not frozen).
	if frozen > pre.Len() {
		t.Fatalf("frozen prefix has %d spans, pre-splice phase executed only %d", frozen, pre.Len())
	}

	// The cut falls inside the post-splice timeline, splitting it in two.
	if cut <= 0 || cut >= post.Makespan() {
		t.Fatalf("cut %d outside the post-splice timeline (0, %d)", cut, post.Makespan())
	}

	// Every segment of the trace — the fault-free iterations and both
	// splice phases — passes the audit the CLIs gate on.
	summary, err := obs.AuditCriticalPaths(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"iter0", "iter2/pre-splice", "iter2/post-splice", "iter3"} {
		if !strings.Contains(summary, label) {
			t.Fatalf("audit summary missing %q:\n%s", label, summary)
		}
	}

	// The splice lifecycle: kill and splice events at the cut, recorded
	// into the caller's trace, which the result hands back.
	c := rec.Counters()
	if c["events.kill"] < 1 || c["events.splice"] != 1 || c["events.rejoin"] < 1 {
		t.Fatalf("lifecycle counters = %v", c)
	}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvSplice && (e.At != cut || e.Detail != event) {
			t.Fatalf("splice event = %+v, want cut %d event %q", e, cut, event)
		}
	}
	if res.Trace != rec {
		t.Fatal("chaos result does not hand back the caller's recorder")
	}
}

// TestRunIterationFailureDumpsFlightRecorder pins the post-mortem path: a
// chaos-killed iteration that errors out appends the attached trace's
// flight-recorder dump to the returned error.
func TestRunIterationFailureDumpsFlightRecorder(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	rt := New(cfg)
	rt.AttachRecorder(obs.NewBoundedTrace(obs.FlightSegments))
	// Killing both workers of a stage leaves the stage dead — the failure
	// path must reject it, and the error must carry the black box.
	_, err := rt.RunIterationFailure([]schedule.Worker{
		{Stage: 0, Pipeline: 0}, {Stage: 0, Pipeline: 1},
	}, 1)
	if err == nil {
		t.Fatal("stage wipe-out must fail")
	}
	if !strings.Contains(err.Error(), "flight recorder:") {
		t.Fatalf("error carries no flight dump: %v", err)
	}
}

// TestMetricsSnapshotFoldsAllGroups checks the unified registry: one
// snapshot holds the plan service's counters, the runtime's op totals and
// the trace's per-phase span counts, under the versioned wire shape; a
// black-box trace adds the count of segments its bound dropped.
func TestMetricsSnapshotFoldsAllGroups(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	rt := New(cfg)
	rt.AttachRecorder(obs.NewTrace())
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}
	snap := rt.MetricsSnapshot()
	if snap.Version != obs.SnapshotVersion {
		t.Fatalf("snapshot version = %d", snap.Version)
	}
	if snap.Groups["engine"]["Solves"] < 1 {
		t.Fatalf("engine group = %v", snap.Groups["engine"])
	}
	rtg := snap.Groups["runtime"]
	if rtg["Iterations"] != 1 || rtg["OpsF"] == 0 || rtg["OpsOPT"] == 0 {
		t.Fatalf("runtime group = %v", rtg)
	}
	tg := snap.Groups["trace"]
	if _, bounded := tg["segments.dropped"]; tg["segments"] != 1 || tg["spans.iter0"] == 0 || bounded {
		t.Fatalf("trace group = %v", tg)
	}
	box := New(cfg)
	box.AttachRecorder(obs.NewBoundedTrace(obs.FlightSegments))
	for range 5 {
		if _, err := box.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	if tg := box.MetricsSnapshot().Groups["trace"]; tg["segments"] != 2 || tg["segments.dropped"] != 3 {
		t.Fatalf("black-box trace group = %v", tg)
	}

	// Without a buffering trace attached the snapshot still carries the
	// engine and runtime groups.
	rt2 := New(cfg)
	if _, err := rt2.RunIteration(); err != nil {
		t.Fatal(err)
	}
	snap2 := rt2.MetricsSnapshot()
	if _, ok := snap2.Groups["trace"]; ok {
		t.Fatal("trace group present without a trace recorder")
	}
	if snap2.Groups["runtime"]["Iterations"] != 1 {
		t.Fatalf("runtime group = %v", snap2.Groups["runtime"])
	}
}

// TestOptimizerOpsCountEveryStep pins what the runtime's optimizer counter
// counts: one op per worker whose step applies, so N healthy DP2×PP2
// iterations record 4N — every data-parallel peer of every stage steps.
func TestOptimizerOpsCountEveryStep(t *testing.T) {
	rt := New(Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	})
	const iters = 3
	for i := 0; i < iters; i++ {
		if _, err := rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.MetricsSnapshot().Groups["runtime"]["OpsOPT"]; got != 4*iters {
		t.Fatalf("OpsOPT = %d after %d DP2×PP2 iterations, want %d", got, iters, 4*iters)
	}
}

// TestChromeTraceDrawsBoundaryEventsInTheGap checks where the Chrome export
// draws lifecycle events that carry no logical time: a worker failed
// before iteration 2 records a boundary kill, a plan fetch and a plan
// solve while iteration 1's segment is still the open one, and each must
// fall between iteration 1's end and iteration 2's start.
func TestChromeTraceDrawsBoundaryEventsInTheGap(t *testing.T) {
	rt := New(smallConfig())
	tr := obs.NewTrace()
	rt.AttachRecorder(tr)
	var from int // index of the first event recorded after iteration 1
	for iter := range 3 {
		if iter == 2 {
			from = len(tr.Events())
			rt.Fail(schedule.Worker{Stage: 2, Pipeline: 1})
		}
		if _, err := rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	ct := obs.BuildChromeTrace(tr)
	var start1, start2 int64 = -1, -1
	var lifecycle []obs.ChromeEvent
	for _, ev := range ct.TraceEvents {
		switch {
		case ev.Name == "segment:iter1":
			start1 = ev.TS
		case ev.Name == "segment:iter2":
			start2 = ev.TS
		case ev.Cat == "lifecycle":
			lifecycle = append(lifecycle, ev)
		}
	}
	if start1 < 0 || start2 < 0 {
		t.Fatalf("missing segment markers: iter1 at %d, iter2 at %d", start1, start2)
	}
	end1 := start1 + segmentNamed(tr, "iter1").Makespan()
	events := tr.Events()
	if len(lifecycle) != len(events) {
		t.Fatalf("the export drew %d lifecycle events, the trace holds %d", len(lifecycle), len(events))
	}
	seen := map[obs.EventKind]bool{}
	for i := from; i < len(events) && events[i].Kind != obs.EvIterStart; i++ {
		if events[i].At >= 0 {
			continue
		}
		seen[events[i].Kind] = true
		if ts := lifecycle[i].TS; ts < end1 || ts >= start2 {
			t.Errorf("%s before iteration 2 drawn at %d, want in [%d, %d): after iteration 1 ends, before iteration 2 starts",
				events[i].Kind, ts, end1, start2)
		}
	}
	for _, k := range []obs.EventKind{obs.EvKill, obs.EvPlanFetch, obs.EvPlanSolve} {
		if !seen[k] {
			t.Errorf("no %s recorded before iteration 2", k)
		}
	}
}
