package obs

import (
	"fmt"
	"sort"
	"strings"

	"recycle/internal/schedule"
)

// StepKind classifies one stretch of the critical path.
type StepKind int8

const (
	// StepOp is an instruction executing on the path.
	StepOp StepKind = iota
	// StepWait is time the path spent blocked between two instructions:
	// communication latency on a dependency edge, a detection/release
	// floor after a splice, or idle before the first instruction.
	StepWait
)

// PathStep is one stretch of the critical path; consecutive steps tile
// the makespan exactly.
type PathStep struct {
	Kind     StepKind
	From, To int64
	// Instr and Op identify the instruction of a StepOp (Instr is -1 on
	// waits).
	Instr int
	Op    schedule.Op
}

// PathReport is the makespan attribution of one recorded segment.
type PathReport struct {
	Label    string
	Makespan int64
	// Steps walk the critical path from t=0 to the makespan; they are
	// contiguous and tile [0, Makespan] exactly (Tiles verifies).
	Steps []PathStep
	// OpSlots and WaitSlots split the makespan between instructions on
	// the path and the waits separating them; their sum is the makespan.
	OpSlots, WaitSlots int64
	// Busy and Idle split every worker's timeline: recorded span time vs
	// the rest of the makespan. Busy[w] + Idle[w] == Makespan for all w.
	Busy, Idle map[schedule.Worker]int64
}

// CriticalPath walks the recorded DAG backwards from the last completed
// instruction and attributes the segment's makespan op by op: each step
// ends where the next begins, so critical-path compute + waits == makespan
// and, per worker, busy + idle == makespan. This is the op-level account
// of where an iteration's time went — which instructions gated completion
// and where bubbles opened.
func CriticalPath(g *Segment) (*PathReport, error) {
	if g == nil {
		return nil, fmt.Errorf("obs: critical path of a nil segment")
	}
	spans := g.Spans()
	if len(spans) == 0 {
		return nil, fmt.Errorf("obs: segment %q has no recorded spans", g.Label)
	}
	// Index spans by instruction and per worker (already Start-sorted).
	byInstr := make(map[int]Span, len(spans))
	byWorker := make(map[schedule.Worker][]Span)
	for _, s := range spans {
		byInstr[s.Instr] = s
		byWorker[s.Worker()] = append(byWorker[s.Worker()], s)
	}
	// Pick the last-finishing span (smallest instr on ties).
	last := spans[0]
	for _, s := range spans[1:] {
		if s.End > last.End || (s.End == last.End && s.Instr < last.Instr) {
			last = s
		}
	}

	rep := &PathReport{
		Label:    g.Label,
		Makespan: last.End,
		Busy:     make(map[schedule.Worker]int64, len(byWorker)),
		Idle:     make(map[schedule.Worker]int64, len(byWorker)),
	}
	for w, ss := range byWorker {
		var busy int64
		for _, s := range ss {
			busy += s.Dur()
		}
		rep.Busy[w] = busy
		rep.Idle[w] = rep.Makespan - busy
	}

	// workerPrev finds the latest same-worker span ending at or before t
	// (excluding instruction self).
	workerPrev := func(w schedule.Worker, t int64, self int) (Span, bool) {
		ss := byWorker[w]
		best, ok := Span{}, false
		for _, s := range ss {
			if s.Instr == self || s.End > t {
				continue
			}
			if !ok || s.End > best.End {
				best, ok = s, true
			}
		}
		return best, ok
	}

	// Backward walk. Every recorded start obeys
	// start = max(worker free, dep ends + latency, release floor), so
	// there is always a latest prior completion at or before the start;
	// the stretch between it and the start is a wait (comm latency, a
	// splice release floor, or genuinely idle time before t=0 work).
	var rev []PathStep
	cur := last
	for steps := 0; ; steps++ {
		if steps > len(spans)+1 {
			return nil, fmt.Errorf("obs: critical path walk did not terminate in segment %q", g.Label)
		}
		rev = append(rev, PathStep{Kind: StepOp, From: cur.Start, To: cur.End, Instr: cur.Instr, Op: cur.Op})
		rep.OpSlots += cur.Dur()
		if cur.Start == 0 {
			break
		}
		// Candidate predecessors: the producers of the dependency edges
		// that released this instruction, and the same worker's previous
		// instruction. The binding constraint is the latest completion at
		// or before our start.
		best, found := Span{}, false
		for _, d := range cur.Deps {
			ds, ok := byInstr[int(d.From)]
			if !ok || ds.End > cur.Start {
				continue
			}
			if !found || ds.End > best.End {
				best, found = ds, true
			}
		}
		if ws, ok := workerPrev(cur.Worker(), cur.Start, cur.Instr); ok {
			if !found || ws.End > best.End {
				best, found = ws, true
			}
		}
		if !found {
			// Nothing recorded before this instruction: the stretch back
			// to t=0 is a release/idle wait.
			rev = append(rev, PathStep{Kind: StepWait, From: 0, To: cur.Start, Instr: -1})
			rep.WaitSlots += cur.Start
			break
		}
		if best.End < cur.Start {
			rev = append(rev, PathStep{Kind: StepWait, From: best.End, To: cur.Start, Instr: -1})
			rep.WaitSlots += cur.Start - best.End
		}
		cur = best
	}
	// Reverse into forward order.
	rep.Steps = make([]PathStep, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		rep.Steps = append(rep.Steps, rev[i])
	}
	if !rep.Tiles() {
		return rep, fmt.Errorf("obs: critical path of segment %q does not tile the makespan: op %d + wait %d != %d",
			g.Label, rep.OpSlots, rep.WaitSlots, rep.Makespan)
	}
	return rep, nil
}

// Tiles verifies the makespan attribution: steps are contiguous from 0 to
// Makespan, OpSlots + WaitSlots == Makespan, and every worker's
// busy + idle == Makespan.
func (r *PathReport) Tiles() bool {
	if r.OpSlots+r.WaitSlots != r.Makespan {
		return false
	}
	at := int64(0)
	for _, st := range r.Steps {
		if st.From != at || st.To < st.From {
			return false
		}
		at = st.To
	}
	if at != r.Makespan {
		return false
	}
	for w, b := range r.Busy {
		if b+r.Idle[w] != r.Makespan {
			return false
		}
	}
	return true
}

// String renders the attribution summary.
func (r *PathReport) String() string {
	return fmt.Sprintf("%s: makespan %d = %d on-path compute + %d wait (%d steps)",
		r.Label, r.Makespan, r.OpSlots, r.WaitSlots, len(r.Steps))
}

// Window is one stretch of a segment's timeline — between splice cuts —
// with each worker's idle (bubble/stall) time inside it.
type Window struct {
	From, To int64
	Idle     map[schedule.Worker]int64
}

// SpliceCuts extracts the cut instants of every splice event, in arrival
// order — the input that chains a cascade's repeated splices into one
// SpliceWindows partition of the final timeline (a 2-kill cascade yields
// two cuts and three windows).
func SpliceCuts(events []Event) []int64 {
	var cuts []int64
	for _, e := range events {
		if e.Kind == EvSplice {
			cuts = append(cuts, e.At)
		}
	}
	return cuts
}

// SpliceWindows partitions [0, makespan] at the given cut instants and
// reports per-worker idle time inside each window — where bubbles opened
// before and after a mid-iteration splice. Cuts outside (0, makespan) are
// ignored.
func SpliceWindows(g *Segment, cuts []int64) []Window {
	makespan := g.Makespan()
	bounds := []int64{0}
	sorted := append([]int64(nil), cuts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, c := range sorted {
		if c > bounds[len(bounds)-1] && c < makespan {
			bounds = append(bounds, c)
		}
	}
	bounds = append(bounds, makespan)
	spans := g.Spans()
	workers := g.Workers()
	out := make([]Window, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		from, to := bounds[i], bounds[i+1]
		w := Window{From: from, To: to, Idle: make(map[schedule.Worker]int64, len(workers))}
		busy := make(map[schedule.Worker]int64, len(workers))
		for _, s := range spans {
			lo, hi := s.Start, s.End
			if lo < from {
				lo = from
			}
			if hi > to {
				hi = to
			}
			if hi > lo {
				busy[s.Worker()] += hi - lo
			}
		}
		for _, wk := range workers {
			w.Idle[wk] = (to - from) - busy[wk]
		}
		out = append(out, w)
	}
	return out
}

// AuditCriticalPaths computes the critical path of every non-empty
// segment, verifies the tiling invariant, and returns a rendered summary —
// the shared post-run check of the -trace CLI modes. An error means a
// segment's attribution failed to tile its makespan.
func AuditCriticalPaths(t *Trace) (string, error) {
	var b strings.Builder
	for _, g := range t.Segments() {
		if g.Len() == 0 {
			continue
		}
		rep, err := CriticalPath(g)
		if err != nil {
			return b.String(), err
		}
		ws := make([]schedule.Worker, 0, len(rep.Idle))
		for w := range rep.Idle {
			ws = append(ws, w)
		}
		schedule.SortWorkers(ws)
		var worst schedule.Worker
		worstIdle := int64(-1)
		for _, w := range ws {
			if rep.Idle[w] > worstIdle {
				worst, worstIdle = w, rep.Idle[w]
			}
		}
		fmt.Fprintf(&b, "  %s; most idle worker %s (%d slots)\n", rep, worst, worstIdle)
	}
	return b.String(), nil
}
