package engine

import (
	"time"

	"recycle/internal/obs"
)

// recBox wraps the recorder in one concrete type so it can live in an
// atomic.Value (interface values with varying dynamic types cannot).
type recBox struct{ r obs.Recorder }

// SetRecorder installs the tracing recorder the plan service's lifecycle
// is recorded into: Coordinator fetches, on-demand solves, background
// warms and spliced-Program publishes. Safe to call
// concurrently with fetches; passing nil restores the default no-op.
func (e *Engine) SetRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop{}
	}
	e.rec.Store(recBox{r})
}

// recorder returns the installed recorder when tracing is on, nil
// otherwise — the fetch paths' zero-cost guard.
func (e *Engine) recorder() obs.Recorder {
	if b, ok := e.rec.Load().(recBox); ok && b.r.Enabled() {
		return b.r
	}
	return nil
}

// observe records one plan-service lifecycle event. Engine events carry no
// logical-clock coordinate (At -1): they happen on the wall clock, between
// or alongside interpreted iterations.
func (e *Engine) observe(kind obs.EventKind, detail string, attrs ...obs.Attr) {
	if r := e.recorder(); r != nil {
		r.Event(obs.Event{Kind: kind, At: -1, Wall: time.Now(), Iter: -1, Detail: detail, Attrs: attrs})
	}
}
