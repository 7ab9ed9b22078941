package engine

import (
	"fmt"
	"time"

	"recycle/internal/schedule"
)

// CodecVersion is the wire-format version EncodePlan stamps into every
// encoded plan. DecodePlan rejects any other version, so a rolling upgrade
// of the plan service can never misread plans written by a newer codec.
const CodecVersion = 2

// EncodePlan serializes a plan into the canonical versioned byte format
// stored in the replicated plan store: the shared header for its schedule,
// then Failures, PeriodSlots, PlanTime, the assignment, the failed list in
// plan order, and every placement as its op, its Start as a delta from the
// previous placement's, and End − Start. The schedule's derived indexes are
// not encoded.
func EncodePlan(p *Plan) ([]byte, error) {
	if p == nil || p.Schedule == nil {
		return nil, fmt.Errorf("engine: refusing to encode an empty plan")
	}
	s := p.Schedule
	w := writer{b: make([]byte, 0, 64+10*len(s.Placements))}
	w.header(kindPlan, CodecVersion, s.Shape, s.Durations, s.Failed)
	w.int(p.Failures)
	w.varint(p.PeriodSlots)
	w.varint(int64(p.PlanTime))
	w.int(len(p.Assignment))
	for _, a := range p.Assignment {
		w.int(a)
	}
	w.int(len(p.Failed))
	for _, k := range p.Failed {
		w.worker(k)
	}
	w.int(len(s.Placements))
	prev := int64(0)
	for _, pl := range s.Placements {
		w.op(pl.Op)
		w.varint(pl.Start - prev)
		w.varint(pl.End - pl.Start)
		prev = pl.Start
	}
	return w.b, w.err
}

// DecodePlan parses bytes written by EncodePlan under the same rules as
// DecodeProgram — counts checked against the bytes remaining before they
// size anything, every op and worker inside the shape, no trailing bytes —
// and rebuilds the plan through schedule.New, which re-sorts placements
// into the canonical deterministic order, so a decoded plan is structurally
// identical to the plan that was encoded.
func DecodePlan(data []byte) (*Plan, error) {
	r := reader{b: data}
	durations, failedSet := r.header(kindPlan, CodecVersion)
	p := &Plan{Failures: r.int(), PeriodSlots: r.varint(), PlanTime: time.Duration(r.varint())}
	if na := r.count(1); na > 0 {
		p.Assignment = make([]int, na)
		for i := range p.Assignment {
			p.Assignment[i] = r.int()
		}
	}
	if nf := r.count(2); nf > 0 {
		p.Failed = make([]schedule.Worker, nf)
		for i := 0; i < nf && r.err == nil; i++ {
			p.Failed[i] = r.worker()
		}
	}
	n := r.count(8)
	if r.err == nil && (n == 0 || !r.sh.Indexable(n)) {
		r.fail("%d placements cannot cover shape %+v", n, r.sh)
	}
	placements := make([]schedule.Placement, n)
	start := int64(0)
	for i := 0; i < n && r.err == nil; i++ {
		op := r.op()
		start += r.varint()
		placements[i] = schedule.Placement{Op: op, Start: start, End: start + r.varint()}
	}
	if err := r.end("plan"); err != nil {
		return nil, err
	}
	p.Schedule = schedule.New(r.sh, durations, failedSet, placements)
	return p, nil
}

// workerList flattens a failed-worker set into a deterministic sorted list
// of the workers marked true; a false entry is a healthy worker.
func workerList(set map[schedule.Worker]bool) []schedule.Worker {
	if len(set) == 0 {
		return nil
	}
	ws := make([]schedule.Worker, 0, len(set))
	for w, down := range set {
		if down {
			ws = append(ws, w)
		}
	}
	schedule.SortWorkers(ws)
	return ws
}
