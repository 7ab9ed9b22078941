package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	if g := segs[0]; g.Len() != 2 {
		t.Fatalf("iter0 segment holds %d spans, want 2", g.Len())
	}
	spans := segs[0].Spans()
	if spans[0].Instr != 0 || spans[1].Instr != 1 {
		t.Fatalf("spans not sorted by start: %v", spans)
	}
	if got := segs[0].Makespan(); got != 4 {
		t.Fatalf("makespan = %d, want 4", got)
	}
	if evs := tr.Events(); len(evs) != 2 || evs[0].Kind != EvIterStart || evs[1].Kind != EvIterEnd {
		t.Fatalf("events = %v", evs)
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

// TestBoundedTraceDropsWholeSegments opens five segments into a trace
// bounded to two: only the newest two remain, the events placed in the
// dropped ones go with them, each kept segment still tiles, and the dump
// reports the three segments it left out.
func TestBoundedTraceDropsWholeSegments(t *testing.T) {
	tr := NewBoundedTrace(2)
	tr.Event(Event{Kind: EvPlanFetch, At: -1, Iter: -1})
	for i := range 5 {
		tr.BeginProgram(fmt.Sprintf("iter%d", i), nil)
		tr.Span(Span{Instr: 1, Op: op(0, 0, 1, schedule.F), Start: 2, End: 4})
		tr.Span(Span{Instr: 0, Op: op(0, 0, 0, schedule.F), Start: 0, End: 2})
		tr.Event(Event{Kind: EvIterEnd, At: 4, Iter: i})
		tr.Event(Event{Kind: EvIterStart, At: 0, Iter: i})
	}
	segs := tr.Segments()
	if len(segs) != 2 || segs[0].Label != "iter3" || segs[1].Label != "iter4" {
		t.Fatalf("kept segments = %v, want iter3 and iter4", segs)
	}
	for _, e := range tr.Events() {
		if e.Iter < 3 {
			t.Fatalf("event %v of a dropped segment survived", e)
		}
	}
	if c := tr.Counters(); c["segments"] != 2 || c["spans"] != 4 || c["events"] != 4 || c["segments.dropped"] != 3 {
		t.Fatalf("counters = %v", c)
	}
	for _, g := range segs {
		if rep, err := CriticalPath(g); err != nil || !rep.Tiles() {
			t.Fatalf("%s: %v", g.Label, err)
		}
	}
	placed := tr.placed()
	if placed[0].seg != 0 || placed[len(placed)-1].seg != 1 {
		t.Fatalf("events placed in segments %d..%d, want 0..1", placed[0].seg, placed[len(placed)-1].seg)
	}
	dump := tr.Dump()
	want := `flight recorder: last 2 segments, 4 spans, 4 events (3 older segments left out)
  begin iter3 (0 instrs)
  event iter-start  at=0 iter=3
  span  #0    `
	if !strings.HasPrefix(dump, want) {
		t.Fatalf("dump =\n%s\nwant prefix\n%s", dump, want)
	}
	if strings.Count(dump, "\n") != 1+2*(1+2+2) {
		t.Fatalf("dump has %d lines:\n%s", strings.Count(dump, "\n"), dump)
	}

	// An unbounded trace keeps everything but dumps the newest two.
	full := NewTrace()
	for i := range 3 {
		full.BeginProgram(fmt.Sprintf("iter%d", i), nil)
	}
	if n := len(full.Segments()); n != 3 {
		t.Fatalf("unbounded trace kept %d segments, want 3", n)
	}
	if d := full.Dump(); !strings.HasPrefix(d, "flight recorder: last 2 segments, 0 spans, 0 events (1 older segments left out)\n  begin iter1") {
		t.Fatalf("unbounded dump = %q", d)
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
