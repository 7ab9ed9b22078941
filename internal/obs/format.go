package obs

import (
	"fmt"
	"strings"
)

// FormatEvent renders one lifecycle event as a single aligned line — the
// one event-formatting path shared by the flight recorder's dump
// (Trace.Dump) and the CLIs' -events output.
func FormatEvent(e Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s", e.Kind)
	if e.At >= 0 {
		fmt.Fprintf(&b, " at=%d", e.At)
	}
	if e.Iter >= 0 {
		fmt.Fprintf(&b, " iter=%d", e.Iter)
	}
	if e.HasWorker {
		fmt.Fprintf(&b, " worker=%s", e.Worker)
	}
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, " %s=%d", a.Key, a.Val)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// FormatEvents renders a recorded event stream, one line per event.
func FormatEvents(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString("  ")
		b.WriteString(FormatEvent(e))
		b.WriteByte('\n')
	}
	return b.String()
}
