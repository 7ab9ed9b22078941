package obs

import (
	"fmt"
	"sort"
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Instr < out[j].Instr
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

// Workers returns every worker with at least one recorded span, in
// (pipeline, stage) order.
func (g *Segment) Workers() []schedule.Worker {
	g.mu.Lock()
	set := make(map[schedule.Worker]bool)
	for _, s := range g.spans {
		set[s.Worker()] = true
	}
	g.mu.Unlock()
	ws := make([]schedule.Worker, 0, len(set))
	for w := range set {
		ws = append(ws, w)
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].Pipeline != ws[j].Pipeline {
			return ws[i].Pipeline < ws[j].Pipeline
		}
		return ws[i].Stage < ws[j].Stage
	})
	return ws
}

// placedEvent remembers which segment was current when an event arrived,
// so exports can place it on the right stretch of the merged timeline.
type placedEvent struct {
	ev  Event
	seg int // index into segs; -1 before the first BeginProgram
}

// Trace is the buffering Recorder: spans grouped into segments, events in
// arrival order. Safe for concurrent use; a nil *Trace is a valid disabled
// recorder.
type Trace struct {
	mu     sync.Mutex
	segs   []*Segment
	events []placedEvent
}

// NewTrace returns an enabled, empty trace.
func NewTrace() *Trace { return &Trace{} }

// Enabled implements Recorder; a nil trace is disabled.
func (t *Trace) Enabled() bool { return t != nil }

// BeginProgram implements Recorder: it opens a new segment.
func (t *Trace) BeginProgram(label string, p *schedule.Program) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.segs = append(t.segs, newSegment(label, p))
	t.mu.Unlock()
}

// current returns the open segment, creating an anonymous one for spans
// recorded before any BeginProgram.
func (t *Trace) current() *Segment {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.segs) == 0 {
		t.segs = append(t.segs, newSegment("seg0", nil))
	}
	return t.segs[len(t.segs)-1]
}

// Span implements Recorder.
func (t *Trace) Span(s Span) {
	if t == nil {
		return
	}
	t.current().add(s)
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
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	segs := append([]*Segment(nil), t.segs...)
	events := append([]placedEvent(nil), t.events...)
	t.mu.Unlock()
	out := map[string]int64{
		"segments": int64(len(segs)),
		"events":   int64(len(events)),
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
