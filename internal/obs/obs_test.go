package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"recycle/internal/schedule"
)

// op builds a span identity on worker (stage, pipe).
func op(stage, pipe, mb int, t schedule.OpType) schedule.Op {
	return schedule.Op{Stage: stage, MB: mb, Home: pipe, Type: t, Exec: pipe}
}

func TestTraceSegmentsSpansAndCounters(t *testing.T) {
	tr := NewTrace()
	if !tr.Enabled() {
		t.Fatal("new trace must be enabled")
	}
	var nilTrace *Trace
	if nilTrace.Enabled() {
		t.Fatal("nil trace must be disabled")
	}

	tr.BeginProgram("iter0", nil)
	tr.Span(Span{Instr: 1, Op: op(0, 0, 1, schedule.F), Start: 2, End: 4})
	tr.Span(Span{Instr: 0, Op: op(0, 0, 0, schedule.F), Start: 0, End: 2})
	tr.Event(Event{Kind: EvIterStart, At: 0, Iter: 0})
	tr.BeginProgram("iter1", nil)
	tr.Span(Span{Instr: 0, Op: op(0, 0, 0, schedule.F), Start: 0, End: 2})
	tr.Event(Event{Kind: EvIterEnd, At: 2, Iter: 1})

	segs := tr.Segments()
	if len(segs) != 2 || segs[0].Label != "iter0" || segs[1].Label != "iter1" {
		t.Fatalf("segments = %v", segs)
	}
	if g := tr.Segment("iter0"); g == nil || g.Len() != 2 {
		t.Fatalf("iter0 segment lookup failed: %v", g)
	}
	spans := segs[0].Spans()
	if spans[0].Instr != 0 || spans[1].Instr != 1 {
		t.Fatalf("spans not sorted by start: %v", spans)
	}
	if got := segs[0].Makespan(); got != 4 {
		t.Fatalf("makespan = %d, want 4", got)
	}
	if evs := tr.SegmentEvents(1); len(evs) != 1 || evs[0].Kind != EvIterEnd {
		t.Fatalf("segment 1 events = %v", evs)
	}

	c := tr.Counters()
	want := map[string]int64{
		"segments": 2, "spans": 3, "events": 2,
		"spans.iter0": 2, "spans.iter1": 1,
		"events.iter-start": 1, "events.iter-end": 1,
	}
	for k, v := range want {
		if c[k] != v {
			t.Errorf("counter %s = %d, want %d", k, c[k], v)
		}
	}
}

// TestCriticalPathTiles hand-builds a two-worker pipeline with a comm
// latency gap: the walk must cross the dependency edge, emit a wait for
// the latency, and tile the makespan exactly.
func TestCriticalPathTiles(t *testing.T) {
	tr := NewTrace()
	tr.BeginProgram("iter0", nil)
	// W0_0: instr 0 F [0,4); W0_1: instr 1 F [5,9) dep on 0 (1 slot of
	// comm), then instr 2 B [9,12); W0_0: instr 3 B [13,17) dep on 2.
	tr.Span(Span{Instr: 0, Op: op(0, 0, 0, schedule.F), Sched: 0, Start: 0, End: 4})
	tr.Span(Span{Instr: 1, Op: op(1, 0, 0, schedule.F), Deps: []schedule.Dep{{From: 0}}, Sched: 5, Start: 5, End: 9})
	tr.Span(Span{Instr: 2, Op: op(1, 0, 0, schedule.BInput), Deps: []schedule.Dep{{From: 1}}, Sched: 9, Start: 9, End: 12})
	tr.Span(Span{Instr: 3, Op: op(0, 0, 0, schedule.BInput), Deps: []schedule.Dep{{From: 2}}, Sched: 13, Start: 13, End: 17})

	rep, err := CriticalPath(tr.Segments()[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != 17 {
		t.Fatalf("makespan = %d, want 17", rep.Makespan)
	}
	if rep.OpSlots != 15 || rep.WaitSlots != 2 {
		t.Fatalf("attribution op=%d wait=%d, want 15/2", rep.OpSlots, rep.WaitSlots)
	}
	if !rep.Tiles() {
		t.Fatal("report does not tile")
	}
	// All four instructions are on the path, joined by two 1-slot waits.
	var ops, waits int
	for _, st := range rep.Steps {
		if st.Kind == StepOp {
			ops++
		} else {
			waits++
		}
	}
	if ops != 4 || waits != 2 {
		t.Fatalf("path has %d ops and %d waits, want 4 and 2", ops, waits)
	}
	// Per-worker busy+idle == makespan.
	w00 := schedule.Worker{Stage: 0, Pipeline: 0}
	if rep.Busy[w00] != 8 || rep.Idle[w00] != 9 {
		t.Fatalf("W0_0 busy/idle = %d/%d, want 8/9", rep.Busy[w00], rep.Idle[w00])
	}
}

func TestCriticalPathEmptySegment(t *testing.T) {
	if _, err := CriticalPath(newSegment("empty", nil)); err == nil {
		t.Fatal("empty segment must error")
	}
	if _, err := CriticalPath(nil); err == nil {
		t.Fatal("nil segment must error")
	}
}

func TestSpliceWindows(t *testing.T) {
	tr := NewTrace()
	tr.BeginProgram("iter0", nil)
	// One worker busy [0,4) and [6,10); cut at 5 → window idle 1 and 1.
	tr.Span(Span{Instr: 0, Op: op(0, 0, 0, schedule.F), Start: 0, End: 4})
	tr.Span(Span{Instr: 1, Op: op(0, 0, 1, schedule.F), Start: 6, End: 10})
	ws := SpliceWindows(tr.Segments()[0], []int64{5})
	if len(ws) != 2 {
		t.Fatalf("windows = %v", ws)
	}
	w := schedule.Worker{Stage: 0, Pipeline: 0}
	if ws[0].Idle[w] != 1 || ws[1].Idle[w] != 1 {
		t.Fatalf("window idle = %d/%d, want 1/1", ws[0].Idle[w], ws[1].Idle[w])
	}
	// A span straddling the cut is clipped, not double-counted.
	tr.Span(Span{Instr: 2, Op: op(0, 0, 2, schedule.F), Start: 4, End: 6})
	ws = SpliceWindows(tr.Segments()[0], []int64{5})
	if ws[0].Idle[w] != 0 || ws[1].Idle[w] != 0 {
		t.Fatalf("clipped window idle = %d/%d, want 0/0", ws[0].Idle[w], ws[1].Idle[w])
	}
}

func TestMultiAndFind(t *testing.T) {
	if _, ok := Multi().(Nop); !ok {
		t.Fatal("Multi() must collapse to Nop")
	}
	if _, ok := Multi(nil, Nop{}, (*Trace)(nil)).(Nop); !ok {
		t.Fatal("Multi of disabled recorders must collapse to Nop")
	}
	tr := NewTrace()
	if got := Multi(nil, tr); got != Recorder(tr) {
		t.Fatal("single survivor must be returned unwrapped")
	}
	fl := NewFlightRecorder(8)
	m := Multi(tr, fl, Nop{})
	if !m.Enabled() {
		t.Fatal("multi must be enabled")
	}
	if FindFlight(m) != fl || FindTrace(m) != tr {
		t.Fatal("Find* must unwrap through Multi")
	}
	if FindFlight(tr) != nil || FindTrace(fl) != nil {
		t.Fatal("Find* must not invent recorders")
	}
	// Fan-out reaches both.
	m.BeginProgram("x", nil)
	m.Span(Span{Instr: 0, Op: op(0, 0, 0, schedule.F), Start: 0, End: 1})
	m.Event(Event{Kind: EvKill, At: 1})
	if tr.Counters()["spans"] != 1 || len(fl.Records()) != 3 {
		t.Fatalf("fan-out missed a recorder: trace=%v flight=%v", tr.Counters(), fl.Records())
	}
}

func TestFlightRecorderRing(t *testing.T) {
	fl := NewFlightRecorder(4)
	for i := 0; i < 7; i++ {
		fl.Span(Span{Instr: i, Op: op(0, 0, i, schedule.F), Start: int64(i), End: int64(i + 1)})
	}
	recs := fl.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	if !strings.Contains(recs[0], "#3") || !strings.Contains(recs[3], "#6") {
		t.Fatalf("ring not oldest-first: %v", recs)
	}
	if fl.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", fl.Dropped())
	}
	dump := fl.Dump()
	if !strings.Contains(dump, "last 4 records (3 older dropped)") {
		t.Fatalf("dump header: %q", dump)
	}
	if NewFlightRecorder(0).ring == nil || len(NewFlightRecorder(-1).ring) != DefaultFlightCap {
		t.Fatal("non-positive capacity must default")
	}
}

func TestRegistryPublishAndSnapshot(t *testing.T) {
	type counters struct {
		Solves   int64
		Hits     uint32
		Name     string // non-integer: skipped
		internal int64  // unexported: skipped
	}
	_ = counters{internal: 1}.internal
	r := NewRegistry()
	if err := r.PublishStruct("engine", &counters{Solves: 3, Hits: 9, Name: "x"}); err != nil {
		t.Fatal(err)
	}
	r.Set("runtime", "Iterations", 7)
	r.SetAll("trace", map[string]int64{"spans": 11})

	snap := r.Snapshot()
	if snap.Version != SnapshotVersion {
		t.Fatalf("version = %d", snap.Version)
	}
	if snap.Groups["engine"]["Solves"] != 3 || snap.Groups["engine"]["Hits"] != 9 {
		t.Fatalf("engine group = %v", snap.Groups["engine"])
	}
	if _, ok := snap.Groups["engine"]["Name"]; ok {
		t.Fatal("non-integer field must be skipped")
	}
	if snap.Groups["runtime"]["Iterations"] != 7 {
		t.Fatalf("runtime group = %v", snap.Groups["runtime"])
	}
	// Snapshot is a deep copy: mutating it must not leak back.
	snap.Groups["trace"]["spans"] = 0
	if r.Snapshot().Groups["trace"]["spans"] != 11 {
		t.Fatal("snapshot aliases live registry state")
	}

	if err := r.PublishStruct("bad", 42); err == nil {
		t.Fatal("non-struct publish must error")
	}
	if err := r.PublishStruct("bad", (*counters)(nil)); err == nil {
		t.Fatal("nil pointer publish must error")
	}
}

func TestFormatEvent(t *testing.T) {
	e := Event{
		Kind: EvSplice, At: 7, Iter: 2,
		Worker: schedule.Worker{Stage: 1, Pipeline: 0}, HasWorker: true,
		Detail: "ev1", Attrs: []Attr{{Key: "lost", Val: 4}},
	}
	got := FormatEvent(e)
	for _, frag := range []string{"splice", "at=7", "iter=2", "worker=W0_1", "lost=4", "(ev1)"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("FormatEvent = %q, missing %q", got, frag)
		}
	}
	// Engine-side events have no clock coordinate or iteration.
	got = FormatEvent(Event{Kind: EvPlanSolve, At: -1, Iter: -1, Detail: "k"})
	if strings.Contains(got, "at=") || strings.Contains(got, "iter=") {
		t.Fatalf("unset coordinates must be omitted: %q", got)
	}
	if lines := strings.Count(FormatEvents([]Event{e, e}), "\n"); lines != 2 {
		t.Fatalf("FormatEvents rendered %d lines, want 2", lines)
	}
}

func TestChromeTraceShape(t *testing.T) {
	tr := NewTrace()
	tr.BeginProgram("iter0", nil)
	tr.Span(Span{Instr: 0, Op: op(0, 0, 0, schedule.F), Start: 0, End: 4, Modeled: 4})
	tr.Span(Span{Instr: 1, Op: op(1, 0, 0, schedule.F), Deps: []schedule.Dep{{From: 0}}, Start: 5, End: 9, Modeled: 4, Frozen: true})
	tr.Event(Event{Kind: EvIterStart, At: 0, Iter: 0})
	tr.BeginProgram("iter1", nil)
	tr.Span(Span{Instr: 0, Op: op(0, 0, 0, schedule.F), Start: 0, End: 4, Modeled: 4})

	ct := BuildChromeTrace(tr)
	var xs, flowStarts, flowEnds, instants int
	flowIDs := make(map[int]int)
	var iter1X ChromeEvent
	for _, ev := range ct.TraceEvents {
		switch ev.Phase {
		case "X":
			xs++
			if ev.Args["segment"] == "iter1" {
				iter1X = ev
			}
			if ev.TID == 0 {
				t.Fatalf("span on the global track: %+v", ev)
			}
		case "s":
			flowStarts++
			flowIDs[ev.ID]++
		case "f":
			flowEnds++
			flowIDs[ev.ID]++
		case "i":
			instants++
		}
	}
	if xs != 3 || flowStarts != 1 || flowEnds != 1 || instants < 2 {
		t.Fatalf("event census: X=%d s=%d f=%d i=%d", xs, flowStarts, flowEnds, instants)
	}
	for id, n := range flowIDs {
		if n != 2 {
			t.Fatalf("flow id %d has %d endpoints, want a matched s/f pair", id, n)
		}
	}
	// Second segment is offset past the first's makespan plus the gap.
	if want := int64(9 + segmentGap); iter1X.TS != want {
		t.Fatalf("iter1 span at ts %d, want %d", iter1X.TS, want)
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var back ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(back.TraceEvents) != len(ct.TraceEvents) {
		t.Fatalf("round trip lost events: %d vs %d", len(back.TraceEvents), len(ct.TraceEvents))
	}
	frozen := false
	for _, ev := range back.TraceEvents {
		if ev.Phase == "X" && ev.Args["frozen"] == true {
			frozen = true
		}
	}
	if !frozen {
		t.Fatal("frozen span lost its marker in export")
	}
}

// TestEventKindNames pins that every declared event kind has a name of its
// own: traces serialize kinds by name (the Chrome export, Counters, the
// text rendering), so a kind that fell through to the EventKind(n)
// fallback, or two kinds sharing a name, would merge or mislabel events.
// EvStepNoop is the last declared kind; the one after it must fall back.
func TestEventKindNames(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EvIterStart; k <= EvStepNoop; k++ {
		name := k.String()
		if strings.HasPrefix(name, "EventKind(") {
			t.Errorf("kind %d has no name: %q", k, name)
		}
		if prev, ok := seen[name]; ok {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if name := (EvStepNoop + 1).String(); !strings.HasPrefix(name, "EventKind(") {
		t.Errorf("a kind after EvStepNoop is named %q: extend this test to the new last kind", name)
	}
}
