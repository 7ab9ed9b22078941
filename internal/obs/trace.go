package obs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"recycle/internal/schedule"
)

// Segment is one executed Program's worth of spans: an iteration, one
// phase of a spliced iteration, or one DES window. The segment keeps the
// Program artifact it was recorded against, so the spans stay attached to
// their dependency edges and modeled durations.
type Segment struct {
	Label string
	Prog  *schedule.Program

	mu    sync.Mutex
	spans map[int]Span
}

func newSegment(label string, p *schedule.Program) *Segment {
	return &Segment{Label: label, Prog: p, spans: make(map[int]Span)}
}

func (g *Segment) add(s Span) {
	g.mu.Lock()
	g.spans[s.Instr] = s
	g.mu.Unlock()
}

// Span returns the recorded span of instruction id.
func (g *Segment) Span(id int) (Span, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.spans[id]
	return s, ok
}

// Len returns the number of recorded spans.
func (g *Segment) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.spans)
}

// Spans returns the recorded spans sorted by (Start, Instr).
func (g *Segment) Spans() []Span {
	g.mu.Lock()
	out := make([]Span, 0, len(g.spans))
	for _, s := range g.spans {
		out = append(out, s)
	}
	g.mu.Unlock()
	slices.SortFunc(out, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Instr, b.Instr))
	})
	return out
}

// Makespan returns the latest recorded end time.
func (g *Segment) Makespan() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var out int64
	for _, s := range g.spans {
		if s.End > out {
			out = s.End
		}
	}
	return out
}

// placedEvent remembers which segment was current when an event arrived,
// so exports can place it on the right stretch of the merged timeline.
type placedEvent struct {
	ev  Event
	seg int // index into segs; -1 before the first BeginProgram
}

// FlightSegments bounds the chaos harness's black box: the previous phase
// and the current one.
const FlightSegments = 2

// Trace is the buffering Recorder: spans grouped into segments, events in
// arrival order. Safe for concurrent use; a nil *Trace is a valid disabled
// recorder.
type Trace struct {
	mu     sync.Mutex
	segs   []*Segment
	events []placedEvent
	// keep > 0 bounds the trace to its newest keep segments; dropped
	// counts the segments that fell out, each with its events.
	keep, dropped int
}

// NewTrace returns an enabled, empty trace that keeps every segment.
func NewTrace() *Trace { return &Trace{} }

// NewBoundedTrace returns an enabled, empty trace that keeps only its
// newest n segments (at least one): opening a segment past the bound drops
// the oldest whole, with the events placed in it.
func NewBoundedTrace(n int) *Trace { return &Trace{keep: max(n, 1)} }

// Enabled implements Recorder; a nil trace is disabled.
func (t *Trace) Enabled() bool { return t != nil }

// open appends a new segment, first dropping the oldest one (and the
// events placed in it or before it) when the trace is at its bound. The
// caller holds t.mu.
func (t *Trace) open(label string, p *schedule.Program) {
	if t.keep > 0 && len(t.segs) == t.keep {
		t.segs = slices.Delete(t.segs, 0, 1)
		t.events = slices.DeleteFunc(t.events, func(pe placedEvent) bool { return pe.seg <= 0 })
		for i := range t.events {
			t.events[i].seg--
		}
		t.dropped++
	}
	t.segs = append(t.segs, newSegment(label, p))
}

// BeginProgram implements Recorder: it opens a new segment.
func (t *Trace) BeginProgram(label string, p *schedule.Program) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.open(label, p)
	t.mu.Unlock()
}

// Span implements Recorder: the span joins the open segment, an anonymous
// one if none was opened.
func (t *Trace) Span(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.segs) == 0 {
		t.open("seg0", nil)
	}
	g := t.segs[len(t.segs)-1]
	t.mu.Unlock()
	g.add(s)
}

// Event implements Recorder.
func (t *Trace) Event(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, placedEvent{ev: e, seg: len(t.segs) - 1})
	t.mu.Unlock()
}

// Segments returns the recorded segments in open order.
func (t *Trace) Segments() []*Segment {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Segment(nil), t.segs...)
}

// Events returns every recorded event in arrival order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	for i, pe := range t.events {
		out[i] = pe.ev
	}
	return out
}

// placed returns the internal event placements (export use).
func (t *Trace) placed() []placedEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]placedEvent(nil), t.events...)
}

// Counters summarizes the trace as flat counters: total segments, spans
// and events, per-event-kind counts ("events.<kind>") and per-segment
// span counts ("spans.<label>") — the trace's contribution to the unified
// metrics registry, and the per-phase span counts recycle-bench reports.
// A bounded trace also counts the segments its bound dropped
// ("segments.dropped"): the totals cover only the segments it kept.
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	segs := append([]*Segment(nil), t.segs...)
	events := append([]placedEvent(nil), t.events...)
	keep, dropped := t.keep, t.dropped
	t.mu.Unlock()
	out := map[string]int64{
		"segments": int64(len(segs)),
		"events":   int64(len(events)),
	}
	if keep > 0 {
		out["segments.dropped"] = int64(dropped)
	}
	var spans int64
	for _, g := range segs {
		n := int64(g.Len())
		spans += n
		out["spans."+g.Label] += n
	}
	out["spans"] = spans
	for _, pe := range events {
		out["events."+pe.ev.Kind.String()]++
	}
	return out
}

// String renders a one-line summary.
func (t *Trace) String() string {
	c := t.Counters()
	return fmt.Sprintf("trace: %d segments, %d spans, %d events", c["segments"], c["spans"], c["events"])
}

// Dump renders the black box for a failure report: the newest
// FlightSegments segments in open order, each with its spans and the
// events placed in it in logical order, under a header counting the older
// segments left out, whether a bound dropped them or Dump skipped them.
func (t *Trace) Dump() string {
	t.mu.Lock()
	first := max(len(t.segs)-FlightSegments, 0)
	segs := append([]*Segment(nil), t.segs[first:]...)
	omitted := t.dropped + first
	// evs[i+1] holds the events placed in segs[i]; evs[0] those placed
	// before the first segment, rendered only when it is shown.
	evs := make([][]Event, len(segs)+1)
	for _, pe := range t.events {
		if i := pe.seg - first; i >= 0 || first == 0 {
			evs[i+1] = append(evs[i+1], pe.ev)
		}
	}
	t.mu.Unlock()
	var b strings.Builder
	spans, events := dumpSegment(&b, nil, evs[0]), len(evs[0])
	for i, g := range segs {
		spans += dumpSegment(&b, g, evs[i+1])
		events += len(evs[i+1])
	}
	return fmt.Sprintf("flight recorder: last %d segments, %d spans, %d events (%d older segments left out)\n%s",
		len(segs), spans, events, omitted, b.String())
}

// dumpSegment renders one segment's open line, then its spans and events
// in logical order: by start or event time, an event before the spans
// starting at its time, an event without a logical time last. It returns
// the number of spans it rendered.
func dumpSegment(b *strings.Builder, g *Segment, evs []Event) int {
	type entry struct {
		at   int64
		text string
	}
	var es []entry
	for _, e := range evs {
		at := e.At
		if at < 0 {
			at = math.MaxInt64
		}
		es = append(es, entry{at, "event " + FormatEvent(e)})
	}
	if g != nil {
		n := 0
		if g.Prog != nil {
			n = len(g.Prog.Instrs)
		}
		fmt.Fprintf(b, "  begin %s (%d instrs)\n", g.Label, n)
		for _, s := range g.Spans() {
			frozen := ""
			if s.Frozen {
				frozen = " frozen"
			}
			es = append(es, entry{s.Start, fmt.Sprintf("span  #%-4d %-22s [%d,%d) sched=%d%s", s.Instr, s.Op, s.Start, s.End, s.Sched, frozen)})
		}
	}
	slices.SortStableFunc(es, func(x, y entry) int { return cmp.Compare(x.at, y.at) })
	for _, e := range es {
		b.WriteString("  " + e.text + "\n")
	}
	return len(es) - len(evs)
}
