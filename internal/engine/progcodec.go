package engine

import (
	"fmt"
	"hash/fnv"

	"recycle/internal/schedule"
)

// ProgramCodecVersion is the wire-format version EncodeProgram stamps into
// every encoded Program. DecodeProgram rejects any other version, so a
// rolling upgrade of the plan service can never misread artifacts written
// by a newer codec — by v3, which carried no cost table, or by v2, which
// spelled the all-reduce out as DP·MB edges into every optimizer.
const ProgramCodecVersion = 4

// EncodeProgram serializes a compiled Program — stamped durations, the cost
// table, explicit dependency edges and the all-reduce barrier, all a remote
// executor needs to interpret a schedule it cannot compile and to splice it
// itself — into the canonical versioned bytes the replicated plan store
// holds: after the header the cost table's length (0 or DP·PP·5) and
// its durations, then the instruction and total edge counts, per
// instruction its op, Dur, its edge count shifted left by one with the
// barrier's gate bit below it, and its (position − From, Kind) edges, then
// per stream its worker and delta-coded IDs. The barrier's contribution
// lists are not on the wire: they are a function of the instructions, which
// the decoder rebuilds. Streams go in (pipeline, stage) order, so encoding a
// Program twice — or encoding a decoded copy — yields identical bytes.
func EncodeProgram(p *schedule.Program) ([]byte, error) {
	if p == nil || len(p.Instrs) == 0 {
		return nil, fmt.Errorf("engine: refusing to encode an empty program")
	}
	edges := 0
	for i := range p.Instrs {
		edges += len(p.Deps(i))
	}
	w := writer{b: make([]byte, 0, 64+12*len(p.Instrs)+3*edges)}
	w.header(p.Shape, p.Durations, p.Failed)
	costs := p.CostTable()
	w.int(len(costs))
	for _, d := range costs {
		w.varint(d)
	}
	w.int(len(p.Instrs))
	w.int(edges)
	for i := range p.Instrs {
		deps := p.Deps(i)
		w.op(p.Op(i))
		w.varint(p.Instrs[i].Dur)
		gate := 0
		if p.Gated(i) {
			gate = 1
		}
		w.int(len(deps)<<1 | gate)
		for _, d := range deps {
			w.varint(int64(i) - int64(d.From))
			w.int(int(d.Kind))
		}
	}
	workers := p.Workers()
	w.int(len(workers))
	for _, wk := range workers {
		stream := p.Stream(wk)
		w.worker(wk)
		w.int(len(stream))
		prev := int32(0)
		for _, id := range stream {
			w.varint(int64(id) - int64(prev))
			prev = id
		}
	}
	return w.b, w.err
}

// DecodeProgram parses bytes written by EncodeProgram straight into a
// Program's flat slabs through schedule.ProgramBuilder, which rebuilds the
// barrier's lists from the instructions. Every count is checked against
// the bytes remaining before it sizes anything, both totals declared up
// front must be consumed exactly, every op, worker and edge kind must lie
// inside its enum and the shape — an all-reduce edge is not an edge kind
// the wire carries — a cost table must be empty or cover the shape with
// positive durations, and the result passes Build's structural checks and
// Prove: a decoded artifact is executable or the decode fails.
func DecodeProgram(data []byte) (*schedule.Program, error) {
	r := reader{b: data}
	durations, failed := r.header()
	var costs []int64
	if nc := r.count(1); nc > 0 && r.err == nil {
		if want := r.sh.DP * r.sh.PP * schedule.OpTypes; nc != want {
			r.fail("cost table of %d durations, shape %+v needs %d", nc, r.sh, want)
		} else {
			costs = make([]int64, nc)
			for i := range costs {
				costs[i] = r.varint()
			}
		}
	}
	n := r.count(8)
	edges := r.count(2)
	if r.err == nil && (n == 0 || !r.sh.Indexable(n)) {
		r.fail("%d instructions cannot cover shape %+v", n, r.sh)
	}
	if r.err != nil {
		return nil, r.end("program")
	}
	// The builder checks what it holds: each op's place in the shape, edge
	// producers and stream IDs inside [0,n), and the declared totals.
	b := schedule.NewProgramBuilder(r.sh, durations, failed, n, edges)
	for i := 0; i < n && r.err == nil; i++ {
		op, dur, head := r.opFields(), r.varint(), r.int()
		b.Instr(op, dur, head&1 == 1)
		for j := 0; j < head>>1 && r.err == nil; j++ {
			from, kind := int64(i)-r.varint(), r.int()
			if kind >= int(schedule.DepAllReduce) {
				r.fail("instruction %d: edge of kind %d", i, kind)
			}
			b.Dep(int(from), schedule.DepKind(kind))
		}
	}
	nw := r.count(3)
	for i := 0; i < nw && r.err == nil; i++ {
		b.Stream(r.worker())
		id := int64(0)
		for j, ns := 0, r.count(1); j < ns && r.err == nil; j++ {
			id += r.varint()
			b.Next(int(id))
		}
	}
	if err := r.end("program"); err != nil {
		return nil, err
	}
	p, err := b.Build()
	if err == nil {
		if err = p.Prove(); err == nil {
			err = p.SetCostTable(costs)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("engine: decoded program: %w", err)
	}
	return p, nil
}

// ProgramDigest returns the FNV-64a digest of p's canonical encoding: what
// a splice event carries so that an executor can check the Program it
// derived against the one the coordinator derived.
func ProgramDigest(p *schedule.Program) (uint64, error) {
	data, err := EncodeProgram(p)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64(), nil
}
