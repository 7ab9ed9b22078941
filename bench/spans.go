package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call the benchmark made into a layer: what, into which
// package, for which op, caused by which span, and when (ns since the
// tracer started).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root span
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's own spans in memory. The driver is one
// goroutine and the runtime calls its ProgramSource on the caller's
// goroutine, so the open-span stack needs no lock. A nil tracer records
// nothing: the untraced pass pays one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name, layer string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: t.op, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: spans closed out of order")
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// nextOp attributes the spans that follow to the next operation.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// selfTimes returns, per span name, the summed self time in microseconds:
// each span's duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(self[i]) / 1e3
	}
	return out
}

// write dumps the spans and the per-layer table of one traced pass.
func (t *tracer) write(dir, workload string, layers map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Layers   map[string]float64 `json:"per_layer"`
		Spans    []span             `json:"spans"`
	}{workload, layers, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
