package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"recycle/internal/schedule"
)

// ChromeEvent is one Chrome trace-event record — the subset of the
// trace-event format the exporter emits: complete slices (ph "X"), flow
// arrows (ph "s"/"f"), instants (ph "i") and metadata (ph "M").
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    int            `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object form of a Chrome trace.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// segmentGap is the blank stretch inserted between consecutive segments on
// the merged timeline, so iteration boundaries stay visible in the viewer.
const segmentGap = 5

// BuildChromeTrace flattens a recorded Trace onto one merged timeline:
// one process, one track (thread) per worker, one complete event per span,
// flow arrows along Program dependency edges, and instant events for the
// lifecycle stream. Each segment's logical clock restarts at zero, so
// segments are laid out at cumulative base offsets (1 slot = 1 µs). An
// event without a logical time (At -1) is drawn at the end of the segment
// open when it arrived, in the gap before the next segment: a boundary
// kill, a plan fetch or a solve happens between the two segments.
func BuildChromeTrace(t *Trace) *ChromeTrace {
	segs := t.Segments()

	// Stable worker → track mapping across all segments.
	wset := make(map[schedule.Worker]bool)
	for _, g := range segs {
		for _, w := range g.Workers() {
			wset[w] = true
		}
	}
	workers := make([]schedule.Worker, 0, len(wset))
	for w := range wset {
		workers = append(workers, w)
	}
	schedule.SortWorkers(workers)
	tid := make(map[schedule.Worker]int, len(workers))
	out := &ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{
		{Name: "process_name", Phase: "M", PID: 1, Args: map[string]any{"name": "recycle"}},
	}}
	for i, w := range workers {
		tid[w] = i + 1
		out.TraceEvents = append(out.TraceEvents,
			ChromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: i + 1,
				Args: map[string]any{"name": w.String()}},
			ChromeEvent{Name: "thread_sort_index", Phase: "M", PID: 1, TID: i + 1,
				Args: map[string]any{"sort_index": i + 1}})
	}

	flowID := 0
	base := make([]int64, len(segs))
	var at int64
	for i, g := range segs {
		base[i] = at
		at += g.Makespan() + segmentGap

		spans := g.Spans()
		out.TraceEvents = append(out.TraceEvents, ChromeEvent{
			Name: "segment:" + g.Label, Cat: "segment", Phase: "i",
			TS: base[i], PID: 1, TID: 0, Scope: "p",
		})
		for _, s := range spans {
			args := map[string]any{
				"instr":   s.Instr,
				"segment": g.Label,
				"sched":   s.Sched,
				"modeled": s.Modeled,
			}
			if s.Actual > 0 {
				args["actual_ns"] = s.Actual.Nanoseconds()
			}
			if s.Frozen {
				args["frozen"] = true
			}
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: s.Op.String(), Cat: "op:" + s.Op.Type.String(), Phase: "X",
				TS: base[i] + s.Start, Dur: s.Dur(), PID: 1, TID: tid[s.Worker()], Args: args,
			})
			// Flow arrows along the dependency edges that released this
			// span, from each producer's completion to our start.
			for _, d := range s.Deps {
				p, ok := g.Span(int(d.From))
				if !ok {
					continue
				}
				flowID++
				out.TraceEvents = append(out.TraceEvents,
					ChromeEvent{Name: d.Kind.String(), Cat: "dep", Phase: "s", ID: flowID,
						TS: base[i] + p.End, PID: 1, TID: tid[p.Worker()]},
					ChromeEvent{Name: d.Kind.String(), Cat: "dep", Phase: "f", BP: "e", ID: flowID,
						TS: base[i] + s.Start, PID: 1, TID: tid[s.Worker()]})
			}
		}
	}

	for _, pe := range t.placed() {
		ev := pe.ev
		var ts int64
		if pe.seg >= 0 && pe.seg < len(base) {
			ts = base[pe.seg]
			if ev.At < 0 {
				ts += segs[pe.seg].Makespan()
			}
		}
		if ev.At > 0 {
			ts += ev.At
		}
		ce := ChromeEvent{
			Name: ev.Kind.String(), Cat: "lifecycle", Phase: "i",
			TS: ts, PID: 1, TID: 0, Scope: "g",
		}
		if ev.HasWorker {
			ce.TID = tid[ev.Worker]
			ce.Scope = "t"
		}
		if len(ev.Attrs) > 0 || ev.Detail != "" || ev.Iter >= 0 {
			ce.Args = map[string]any{}
			if ev.Detail != "" {
				ce.Args["detail"] = ev.Detail
			}
			if ev.Iter >= 0 {
				ce.Args["iter"] = ev.Iter
			}
			for _, a := range ev.Attrs {
				ce.Args[a.Key] = a.Val
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	return out
}

// WriteChromeTrace exports the trace as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing: one track per worker, one complete
// event per recorded span, flow events along dependency edges, instant
// events for the lifecycle stream.
func WriteChromeTrace(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(BuildChromeTrace(t)); err != nil {
		return fmt.Errorf("obs: encoding chrome trace: %w", err)
	}
	return nil
}
