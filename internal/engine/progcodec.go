package engine

import (
	"fmt"

	"recycle/internal/schedule"
)

// ProgramCodecVersion is the wire-format version EncodeProgram stamps into
// every encoded Program. DecodeProgram rejects any other version, so a
// rolling upgrade of the plan service can never misread artifacts written
// by a newer codec — or by v2, which spelled the all-reduce out as DP·MB
// edges into every optimizer.
const ProgramCodecVersion = 3

// EncodeProgram serializes a compiled Program — stamped durations, explicit
// dependency edges and the all-reduce barrier, all a remote executor needs
// to interpret a schedule it cannot compile — into the canonical versioned
// bytes the replicated plan store holds: after the shared header the
// instruction and total edge counts, per instruction its op, Dur, its edge
// count shifted left by one with the barrier's gate bit below it, and its
// (position − From, Kind) edges, then per stream its worker and
// delta-coded IDs. The barrier's contribution lists are not on the wire:
// they are a function of the instructions, which the decoder rebuilds. IDs
// are list positions and streams go in (pipeline, stage) order, so encoding
// a Program twice — or encoding a decoded copy — yields identical bytes.
func EncodeProgram(p *schedule.Program) ([]byte, error) {
	if p == nil || len(p.Instrs) == 0 {
		return nil, fmt.Errorf("engine: refusing to encode an empty program")
	}
	edges := 0
	for i := range p.Instrs {
		if id := p.Instrs[i].ID; id != i {
			return nil, fmt.Errorf("engine: program instruction %d carries ID %d — IDs must equal list positions", i, id)
		}
		edges += len(p.Instrs[i].Deps)
	}
	w := writer{b: make([]byte, 0, 64+12*len(p.Instrs)+3*edges)}
	w.header(kindProgram, ProgramCodecVersion, p.Shape, p.Durations, p.Failed)
	w.int(len(p.Instrs))
	w.int(edges)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		w.op(in.Op)
		w.varint(in.Dur)
		gate := 0
		if p.Barrier.Gates(i) {
			gate = 1
		}
		w.int(len(in.Deps)<<1 | gate)
		for _, d := range in.Deps {
			w.varint(int64(i) - int64(d.From))
			w.int(int(d.Kind))
		}
	}
	workers := p.Workers()
	w.int(len(workers))
	for _, wk := range workers {
		w.worker(wk)
		w.int(len(p.Streams[wk]))
		prev := 0
		for _, id := range p.Streams[wk] {
			w.varint(int64(id) - int64(prev))
			prev = id
		}
	}
	return w.b, w.err
}

// DecodeProgram parses bytes written by EncodeProgram straight into the
// layout Compile produces: one instruction slab, one edge slab the Deps are
// carved from, one stream slab, the precomputed worker list, the gate bits
// (schedule.NewProgram rebuilds the barrier's lists from the instructions).
// Every count is checked against the bytes remaining before it sizes
// anything, both totals declared up front must be consumed exactly, every
// op, worker and edge kind must lie inside its enum and the shape — an
// all-reduce edge is not an edge kind the wire carries — and the result
// passes the full structural Validate, barrier included: a decoded artifact
// is executable or the decode fails.
func DecodeProgram(data []byte) (*schedule.Program, error) {
	r := reader{b: data}
	durations, failed := r.header(kindProgram, ProgramCodecVersion)
	n := r.count(8)
	edges := r.count(2)
	if r.err == nil && (n == 0 || !r.sh.Indexable(n)) {
		r.fail("%d instructions cannot cover shape %+v", n, r.sh)
	}
	instrs := make([]schedule.Instr, n)
	gated := make([]bool, n)
	deps := make([]schedule.Dep, edges)
	for i := 0; i < n && r.err == nil; i++ {
		in := &instrs[i]
		in.ID, in.Op, in.Dur = i, r.op(), r.varint()
		head := r.int()
		nd := head >> 1
		gated[i] = head&1 == 1
		if nd > len(deps) {
			r.fail("instruction %d overruns the %d declared edges", i, edges)
			break
		}
		if nd > 0 {
			in.Deps, deps = deps[:nd:nd], deps[nd:]
		}
		for j := range in.Deps {
			from, kind := int64(i)-r.varint(), r.int()
			if from < 0 || from >= int64(n) || kind >= int(schedule.DepAllReduce) {
				r.fail("instruction %d: edge from %d of kind %d", i, from, kind)
				break
			}
			in.Deps[j] = schedule.Dep{From: int(from), Kind: schedule.DepKind(kind)}
		}
	}
	if r.err == nil && len(deps) > 0 {
		r.fail("%d of the %d declared edges are missing", len(deps), edges)
	}
	nw := r.count(3)
	ids := make([]int, n)
	streams := make(map[schedule.Worker][]int, nw)
	workers := make([]schedule.Worker, nw)
	for i := 0; i < nw && r.err == nil; i++ {
		workers[i] = r.worker()
		ns := r.count(1)
		if ns > len(ids) {
			r.fail("streams hold more than the %d instructions", n)
			break
		}
		id := int64(0)
		for j := 0; j < ns; j++ {
			if id += r.varint(); id < 0 || id >= int64(n) {
				r.fail("stream of %s references instruction %d outside [0,%d)", workers[i], id, n)
				break
			}
			ids[j] = int(id)
		}
		streams[workers[i]], ids = ids[:ns:ns], ids[ns:]
	}
	if r.err == nil && len(ids) > 0 {
		r.fail("%d instructions are in no stream", len(ids))
	}
	if err := r.end("program"); err != nil {
		return nil, err
	}
	p, err := schedule.NewProgram(r.sh, durations, failed, instrs, streams, workers, gated)
	if err != nil {
		return nil, fmt.Errorf("engine: decoded program: %w", err)
	}
	return p, nil
}
