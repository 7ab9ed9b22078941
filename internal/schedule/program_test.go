package schedule

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestCompileFaultFree1F1B checks the lowering of the running example's
// fault-free schedule: one instruction per placement, per-worker streams in
// start order, and the expected edge structure.
func TestCompileFaultFree1F1B(t *testing.T) {
	shape := Shape{DP: 3, PP: 4, MB: 6, Iter: 1}
	s := FaultFree1F1B(shape, UnitSlots)
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.Instrs), len(s.Placements); got != want {
		t.Fatalf("program has %d instructions, schedule has %d placements", got, want)
	}
	if got, want := len(p.Workers()), shape.DP*shape.PP; got != want {
		t.Fatalf("program has %d workers, want %d", got, want)
	}
	// Streams preserve the schedule's per-worker start order.
	for _, w := range p.Workers() {
		ps := s.Worker(w)
		stream := p.Streams[w]
		if len(stream) != len(ps) {
			t.Fatalf("worker %s stream has %d instructions, schedule has %d placements", w, len(stream), len(ps))
		}
		for i, id := range stream {
			if p.Instrs[id].Op != ps[i].Op {
				t.Fatalf("worker %s stream[%d] = %s, schedule has %s", w, i, p.Instrs[id].Op, ps[i].Op)
			}
		}
	}
	// A stage-0 forward has no data deps; a stage-i>0 forward has exactly
	// one activation edge; optimizers carry no edges, and the barrier
	// gates each on one weight gradient per backward of its stage.
	for id, ins := range p.Instrs {
		switch ins.Op.Type {
		case F:
			want := 0
			if ins.Op.Stage > 0 {
				want = 1
			}
			if len(ins.Deps) != want {
				t.Fatalf("%s has %d deps, want %d", ins.Op, len(ins.Deps), want)
			}
		case Optimizer:
			if len(ins.Deps) != 0 || !p.Barrier.Gates(id) {
				t.Fatalf("%s has %d deps and gated=%v, want the barrier alone", ins.Op, len(ins.Deps), p.Barrier.Gates(id))
			}
			if got, want := len(p.Barrier.Group(shape.StageIndex(ins.Op.Iter, ins.Op.Stage))), shape.DP*shape.MB; got != want {
				t.Fatalf("%s gates on %d weight gradients, want %d", ins.Op, got, want)
			}
		}
	}
}

// TestCompileRejectsIncompleteSchedule checks that a schedule with a
// missing producer cannot be lowered.
func TestCompileRejectsIncompleteSchedule(t *testing.T) {
	shape := Shape{DP: 1, PP: 2, MB: 1, Iter: 1}
	// A backward at stage 0 with no forward anywhere.
	ps := []Placement{
		{Op: Op{Stage: 0, MB: 0, Home: 0, Exec: 0, Type: B, Iter: 0}, Start: 0, End: 2},
	}
	if _, err := Compile(New(shape, UnitSlots, nil, ps)); err == nil {
		t.Fatal("compiling a schedule with a missing forward should fail")
	}
}

// TestCompileRejectsDuplicateAndMissingWeightGradients checks the
// all-reduce completeness guard: a duplicated BWeight and a missing one
// must both fail to compile (either would silently distort the optimizer
// barrier the gradient all-reduce depends on).
func TestCompileRejectsDuplicateAndMissingWeightGradients(t *testing.T) {
	shape := Shape{DP: 1, PP: 1, MB: 2, Iter: 1}
	base := FaultFree1F1B(shape, UnitSlots)

	// Duplicate: re-add the first coupled backward as a stray BWeight.
	var dup []Placement
	dup = append(dup, base.Placements...)
	for _, pl := range base.Placements {
		if pl.Op.Type == B {
			extra := pl
			extra.Op.Type = BWeight
			extra.Start, extra.End = pl.End, pl.End+UnitSlots.BWeight
			dup = append(dup, extra)
			break
		}
	}
	if _, err := Compile(New(shape, UnitSlots, nil, dup)); err == nil {
		t.Fatal("compiling a schedule with a duplicate weight gradient should fail")
	}

	// Missing: drop one backward entirely; the optimizer then gates on
	// fewer weight gradients than the shape requires.
	var missing []Placement
	dropped := false
	for _, pl := range base.Placements {
		if !dropped && pl.Op.Type == B {
			dropped = true
			continue
		}
		missing = append(missing, pl)
	}
	if _, err := Compile(New(shape, UnitSlots, nil, missing)); err == nil {
		t.Fatal("compiling a schedule with a missing weight gradient should fail")
	}
}

// TestValidateCatchesCycle checks deadlock detection on a hand-built
// program whose edges form a cycle.
func TestValidateCatchesCycle(t *testing.T) {
	w := Worker{Stage: 0, Pipeline: 0}
	op := func(mb int, t OpType) Op { return Op{Stage: 0, MB: mb, Home: 0, Exec: 0, Type: t} }
	p := &Program{
		Shape:     Shape{DP: 1, PP: 1, MB: 2, Iter: 1},
		Durations: UnitSlots,
		Instrs: []Instr{
			{ID: 0, Op: op(0, F), Deps: []Dep{{From: 1, Kind: DepLocal}}},
			{ID: 1, Op: op(0, B), Deps: []Dep{{From: 0, Kind: DepLocal}}},
		},
		Streams: map[Worker][]int{w: {0, 1}},
	}
	if err := p.Validate(); err == nil {
		t.Fatal("a cyclic program should fail validation")
	}
}

// TestBarrierIsLinear pins what the barrier buys at the Fig 9 GPT-3 Medium
// shape (PP2×MB85): explicit edges plus barrier entries stay within two per
// instruction at every DP, where DP·MB all-reduce edges into every
// optimizer cost 6.96 per instruction at DP 12 and grew linearly with DP.
func TestBarrierIsLinear(t *testing.T) {
	for _, dp := range []int{3, 6, 12} {
		sh := Shape{DP: dp, PP: 2, MB: 85, Iter: 1}
		p, err := Compile(FaultFree1F1B(sh, UnitSlots))
		if err != nil {
			t.Fatal(err)
		}
		links, expanded := len(p.Barrier.IDs), 0
		for i := range p.Instrs {
			links += len(p.Instrs[i].Deps)
			if p.Barrier.Gates(i) {
				links++
			}
			expanded += len(p.Producers(i))
		}
		per := float64(links) / float64(len(p.Instrs))
		t.Logf("DP%d: %d instructions, %.2f edges and barrier entries per instruction (%.2f as explicit edges)",
			dp, len(p.Instrs), per, float64(expanded)/float64(len(p.Instrs)))
		if per > 2 {
			t.Errorf("DP%d: %.2f edges and barrier entries per instruction, budget 2", dp, per)
		}
	}
}

// TestValidateChecksBarrier corrupts the barrier of a compiled Program one
// way at a time; Validate must name each defect.
func TestValidateChecksBarrier(t *testing.T) {
	sh := Shape{DP: 2, PP: 2, MB: 2, Iter: 1}
	// The canonical order opens on a forward and closes on an optimizer.
	firstF, lastOpt := 0, len(FaultFree1F1B(sh, UnitSlots).Placements)-1
	cases := []struct {
		name, want string
		corrupt    func(p *Program)
	}{
		{"gate on a forward", "not an optimizer", func(p *Program) { p.Barrier.Gated[firstF] = true }},
		{"short gate bits", "gate bits cover", func(p *Program) { p.Barrier.Gated = p.Barrier.Gated[1:] }},
		{"gates without lists", "lists no weight gradients", func(p *Program) { p.Barrier.Off, p.Barrier.IDs = nil, nil }},
		{"group out of order", "out of order", func(p *Program) { p.Barrier.IDs[0], p.Barrier.IDs[1] = p.Barrier.IDs[1], p.Barrier.IDs[0] }},
		{"entry outside the program", "outside", func(p *Program) { p.Barrier.IDs[len(p.Barrier.IDs)-1] = int32(len(p.Instrs)) }},
		{"foreign entry", "not one of its weight gradients", func(p *Program) { p.Barrier.IDs[0] = int32(firstF) }},
		{"short group", "gates on 3 weight gradients, want 4", func(p *Program) {
			p.Barrier.IDs = p.Barrier.IDs[1:]
			for g := 1; g < len(p.Barrier.Off); g++ {
				p.Barrier.Off[g]--
			}
		}},
		{"offsets past the list", "offsets do not span", func(p *Program) { p.Barrier.Off[len(p.Barrier.Off)-1]++ }},
		{"unlisted weight gradient", "lists 7 of the 8 weight gradients", func(p *Program) {
			p.Barrier.Gated = nil // no gate to trip over the short group first
			p.Barrier.IDs = p.Barrier.IDs[1:]
			for g := 1; g < len(p.Barrier.Off); g++ {
				p.Barrier.Off[g]--
			}
		}},
		{"step before its gradients", "deadlocks", func(p *Program) {
			// Move the optimizer to the head of its worker's stream: its own
			// weight gradients now wait on it in stream order.
			w := p.Instrs[lastOpt].Op.Worker()
			s := p.Streams[w]
			copy(s[1:], s[:len(s)-1])
			s[0] = lastOpt
		}},
	}
	for _, c := range cases {
		p, err := Compile(FaultFree1F1B(sh, UnitSlots))
		if err != nil {
			t.Fatal(err)
		}
		if p.Instrs[firstF].Op.Type != F || p.Instrs[lastOpt].Op.Type != Optimizer {
			t.Fatalf("instructions %d and %d are %s and %s, not a forward and an optimizer", firstF, lastOpt, p.Instrs[firstF].Op, p.Instrs[lastOpt].Op)
		}
		c.corrupt(p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate returned %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestValidateCatchesBadEdge checks edge-consistency validation.
func TestValidateCatchesBadEdge(t *testing.T) {
	shape := Shape{DP: 2, PP: 2, MB: 2, Iter: 1}
	s := FaultFree1F1B(shape, UnitSlots)
	p, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one gradient/activation edge to point at an unrelated op.
	for i := range p.Instrs {
		if p.Instrs[i].Op.Type == F && p.Instrs[i].Op.Stage == 1 {
			p.Instrs[i].Deps[0].From = i // self-edge: wrong producer type
			break
		}
	}
	if err := p.Validate(); err == nil {
		t.Fatal("a mis-wired activation edge should fail validation")
	}
}

// quickShape is a randomized-but-valid schedule shape for the property
// test; testing/quick fills the seeds and the derivation keeps them in the
// planner's supported envelope.
type quickShape struct {
	DP, PP, MB, Iter uint8
}

func (q quickShape) shape() Shape {
	return Shape{
		DP:   1 + int(q.DP%3),
		PP:   1 + int(q.PP%4),
		MB:   1 + int(q.MB%5),
		Iter: 1 + int(q.Iter%2),
	}
}

// TestCompiledProgramsSoundAcrossShapes is the property test: for every
// generated shape, the compiled fault-free program passes validation
// (deadlock-free + edge-consistent), covers every placement, and its
// per-type instruction counts match the schedule's.
func TestCompiledProgramsSoundAcrossShapes(t *testing.T) {
	prop := func(q quickShape) bool {
		shape := q.shape()
		if shape.MB < shape.PP {
			shape.MB = shape.PP // 1F1B warm-up needs mb >= depth to stay interesting
		}
		s := FaultFree1F1B(shape, UnitSlots)
		p, err := Compile(s)
		if err != nil {
			t.Logf("shape %+v: compile failed: %v", shape, err)
			return false
		}
		if err := p.Validate(); err != nil {
			t.Logf("shape %+v: validate failed: %v", shape, err)
			return false
		}
		if len(p.Instrs) != len(s.Placements) {
			t.Logf("shape %+v: %d instrs vs %d placements", shape, len(p.Instrs), len(s.Placements))
			return false
		}
		for _, typ := range []OpType{F, B, BInput, BWeight, Optimizer} {
			if p.OpCount(typ) != s.OpCount(0, typ)*shape.Iter {
				t.Logf("shape %+v: op count mismatch for %s", shape, typ)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
