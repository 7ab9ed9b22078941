package schedule

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
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
		stream := p.Stream(w)
		if len(stream) != len(ps) {
			t.Fatalf("worker %s stream has %d instructions, schedule has %d placements", w, len(stream), len(ps))
		}
		for i, id := range stream {
			if p.Op(int(id)) != ps[i].Op {
				t.Fatalf("worker %s stream[%d] = %s, schedule has %s", w, i, p.Op(int(id)), ps[i].Op)
			}
		}
	}
	// A stage-0 forward has no data deps; a stage-i>0 forward has exactly
	// one activation edge; optimizers carry no edges, and the barrier
	// gates each on one weight gradient per backward of its stage.
	for id := range p.Instrs {
		op, deps := p.Op(id), p.Deps(id)
		switch op.Type {
		case F:
			want := 0
			if op.Stage > 0 {
				want = 1
			}
			if len(deps) != want {
				t.Fatalf("%s has %d deps, want %d", op, len(deps), want)
			}
		case Optimizer:
			if len(deps) != 0 || !p.Gated(id) {
				t.Fatalf("%s has %d deps and gated=%v, want the barrier alone", op, len(deps), p.Gated(id))
			}
			if got, want := len(p.Barrier.Group(shape.StageIndex(op.Iter, op.Stage))), shape.DP*shape.MB; got != want {
				t.Fatalf("%s gates on %d weight gradients, want %d", op, got, want)
			}
		}
	}
}

// TestRenumberKeepsTheProgram renumbers a copy of a compiled decoupled
// Program in place by a random permutation: every instruction keeps its op,
// duration, gate and producers under its new ID, every stream and barrier
// group its members, the result validates, renumbering back restores the
// Program, and with the scratch pool warm a renumbering allocates nothing.
func TestRenumberKeepsTheProgram(t *testing.T) {
	sh := Shape{DP: 3, PP: 3, MB: 4, Iter: 2}
	p, err := Compile(New(sh, UnitSlots, nil, decouple(FaultFree1F1B(sh, UnitSlots).Placements)))
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int32, len(p.Instrs))
	for k, i := range rand.New(rand.NewSource(5)).Perm(len(order)) {
		order[k] = int32(i)
	}
	q := cloneProgram(p)
	q.Renumber(order)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	back := make([]int32, len(order))
	for k, i := range order {
		back[i] = int32(k)
		if q.Op(k) != p.Op(int(i)) || q.Instrs[k].Dur != p.Instrs[i].Dur || q.Gated(k) != p.Gated(int(i)) || len(q.Deps(k)) != len(p.Deps(int(i))) {
			t.Fatalf("instruction %d (%s) became %d (%s)", i, p.Op(int(i)), k, q.Op(k))
		}
		for n, d := range q.Deps(k) {
			if pd := p.Deps(int(i))[n]; order[d.From] != pd.From || d.Kind != pd.Kind {
				t.Fatalf("%s: edge %v became %v", q.Op(k), pd, d)
			}
		}
	}
	for _, w := range p.Workers() {
		for n, id := range q.Stream(w) {
			if order[id] != p.Stream(w)[n] {
				t.Fatalf("stream of %s: position %d holds %s, want %s", w, n, q.Op(int(id)), p.Op(int(p.Stream(w)[n])))
			}
		}
	}
	for g := 0; g+1 < len(p.Barrier.Off); g++ {
		if len(q.Barrier.Group(g)) != len(p.Barrier.Group(g)) {
			t.Fatalf("barrier group %d lists %d weight gradients, want %d", g, len(q.Barrier.Group(g)), len(p.Barrier.Group(g)))
		}
	}
	if q.Renumber(back); q.plain.set != 0 {
		t.Fatal("Renumber kept the plain timeline of the old IDs")
	}
	if q.plain = p.plain; !reflect.DeepEqual(q, p) {
		t.Fatal("renumbering back does not restore the Program")
	}
	if raceEnabled {
		return // the race detector empties sync.Pool at random
	}
	if allocs := testing.AllocsPerRun(20, func() { q.Renumber(order); q.Renumber(back) }); allocs != 0 {
		t.Fatalf("a warm Renumber allocates %.1f times, want 0", allocs/2)
	}
}

// cloneProgram copies p into slabs of its own, so renumbering the copy in
// place leaves p as it was.
func cloneProgram(p *Program) *Program {
	q := *p
	q.Instrs, q.deps = slices.Clone(p.Instrs), slices.Clone(p.deps)
	q.streams, q.streamOff = slices.Clone(p.streams), slices.Clone(p.streamOff)
	q.Barrier = Barrier{Off: slices.Clone(p.Barrier.Off), IDs: slices.Clone(p.Barrier.IDs)}
	return &q
}

// TestCostTable pins a Program's cost table: NewCostTable tabulates a cost
// function by (WorkerIndex, op type), Cost reads it back — or the Program's
// Durations when it carries none — and SetCostTable and WithCosts refuse a
// table that does not cover the shape or holds a non-positive duration.
func TestCostTable(t *testing.T) {
	shape := Shape{DP: 2, PP: 3, MB: 2, Iter: 1}
	p, err := Compile(FaultFree1F1B(shape, UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	slow := Worker{Stage: 1, Pipeline: 1}
	fn := func(w Worker, t OpType) int64 {
		if w == slow {
			return 3 * UnitSlots.Of(t)
		}
		return UnitSlots.Of(t)
	}
	if p.CostTable() != nil || p.Cost(slow, B) != 2 {
		t.Fatal("a Program without a cost table does not run its Durations")
	}
	table := NewCostTable(shape, fn)
	if len(table) != shape.DP*shape.PP*OpTypes {
		t.Fatalf("cost table of %d durations", len(table))
	}
	if err := p.SetCostTable(table); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < shape.DP*shape.PP; w++ {
		for ty := F; ty <= Optimizer; ty++ {
			if got, want := p.Cost(shape.WorkerAt(w), ty), fn(shape.WorkerAt(w), ty); got != want {
				t.Fatalf("%s of %s costs %d, want %d", ty, shape.WorkerAt(w), got, want)
			}
		}
	}
	bad := func(i int, d int64) []int64 {
		out := append([]int64(nil), table...)
		out[i] = d
		return out
	}
	for name, tc := range map[string][]int64{
		"short":    table[1:],
		"zero":     bad(len(table)-1, 0),
		"negative": bad(0, -1),
	} {
		err := p.SetCostTable(tc)
		if err == nil {
			t.Errorf("SetCostTable accepted a %s table", name)
		}
		if _, werr := p.WithCosts(tc); werr == nil || werr.Error() != err.Error() {
			t.Errorf("WithCosts on a %s table: %v, want SetCostTable's %v", name, werr, err)
		}
	}
	if err := p.SetCostTable(nil); err != nil || p.CostTable() != nil {
		t.Fatalf("clearing the cost table: %v", err)
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

// assemble builds a Program of the given ops through ProgramBuilder, with
// deps[i] as instruction i's edges, no stamped durations, no gates and
// every worker's stream in instruction order.
func assemble(sh Shape, ops []Op, deps map[int][]Dep) (*Program, error) {
	edges := 0
	for _, ds := range deps {
		edges += len(ds)
	}
	b := NewProgramBuilder(sh, UnitSlots, nil, len(ops), edges)
	for i, op := range ops {
		b.Instr(op, 0, false)
		for _, d := range deps[i] {
			b.Dep(int(d.From), d.Kind)
		}
	}
	for w := 0; w < sh.DP*sh.PP; w++ {
		opened := false
		for i, op := range ops {
			if sh.WorkerIndex(op.Worker()) != w {
				continue
			}
			if !opened {
				b.Stream(sh.WorkerAt(w))
				opened = true
			}
			b.Next(i)
		}
	}
	return b.Build()
}

// assembleErr is the verdict on what assemble builds: Build's structural
// checks, then the full Validate.
func assembleErr(sh Shape, ops []Op, deps map[int][]Dep) error {
	p, err := assemble(sh, ops, deps)
	if err != nil {
		return err
	}
	return p.Validate()
}

// TestValidateCatchesCycle checks deadlock detection on a hand-built
// program whose edges form a cycle. Build checks structure only, so it
// builds; Validate walks it, and so does Prove.
func TestValidateCatchesCycle(t *testing.T) {
	op := func(mb int, t OpType) Op { return Op{Stage: 0, MB: mb, Home: 0, Exec: 0, Type: t} }
	p, err := assemble(Shape{DP: 1, PP: 1, MB: 2, Iter: 1}, []Op{op(0, F), op(0, B)},
		map[int][]Dep{0: {{From: 1, Kind: DepLocal}}, 1: {{From: 0, Kind: DepLocal}}})
	if err != nil {
		t.Fatalf("Build rejected a structurally sound program: %v", err)
	}
	const want = "schedule: program deadlocks: 2 of 2 instructions are on a dependency cycle"
	if err := p.Validate(); err == nil || err.Error() != want {
		t.Fatalf("Validate of a cyclic program returned %v, want %s", err, want)
	}
	if err := p.Prove(); err == nil || err.Error() != want {
		t.Fatalf("Prove of a cyclic program returned %v, want %s", err, want)
	}
	if _, _, _, ran := p.Plain(); ran != 0 {
		t.Fatalf("the cyclic program's plain timeline ran %d instructions, want 0", ran)
	}
}

// TestValidateErrorsAreDeterministic misfiles two instructions into each
// other's streams on different workers: Validate must name the same one —
// the first in WorkerIndex order — on every call.
func TestValidateErrorsAreDeterministic(t *testing.T) {
	p, err := Compile(FaultFree1F1B(Shape{DP: 2, PP: 2, MB: 2, Iter: 1}, UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.streamOff[0], p.streamOff[len(p.streamOff)-2]
	p.streams[a], p.streams[b] = p.streams[b], p.streams[a]
	want := p.Validate()
	if want == nil || !strings.Contains(want.Error(), "filed under worker W0_0") {
		t.Fatalf("Validate returned %v, want the misfiled head of W0_0's stream", want)
	}
	for range 50 {
		if err := p.Validate(); err == nil || err.Error() != want.Error() {
			t.Fatalf("Validate returned %v, then %v", want, err)
		}
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
			links += len(p.Deps(i))
			if p.Gated(i) {
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

// pointerFree reports whether values of type t hold no pointer: no
// pointer, slice, map, string, interface, function or channel, however
// deeply nested in structs and arrays.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return false
	default:
		return true
	}
}

// TestProgramFootprint pins the in-memory size of a Program: a
// pointer-free instruction of at most 24 bytes, a pointer-free edge, and
// the healthy Fig 9 GPT-3 Medium Program (DP12×PP2×MB85, 4 104
// instructions) in at most 40 bytes per instruction across all its slabs.
// The pointer-graph layout it replaced took about 115: an 88-byte
// instruction with an ID, a six-int op and an edge-list header, 16-byte
// edges and a map of per-worker ID lists.
func TestProgramFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Instr{}); size > 24 {
		t.Errorf("an instruction takes %d bytes, budget 24", size)
	}
	for _, v := range []any{Instr{}, Dep{}} {
		if typ := reflect.TypeOf(v); !pointerFree(typ) {
			t.Errorf("%s holds a pointer", typ)
		}
	}
	p, err := Compile(FaultFree1F1B(Shape{DP: 12, PP: 2, MB: 85, Iter: 1}, UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs) != 4104 {
		t.Fatalf("the Fig 9 Medium Program has %d instructions, want 4104", len(p.Instrs))
	}
	slabs := []struct {
		name  string
		bytes uintptr
	}{
		{"instructions", uintptr(cap(p.Instrs)) * unsafe.Sizeof(Instr{})},
		{"edges", uintptr(cap(p.deps)) * unsafe.Sizeof(Dep{})},
		{"streams", uintptr(len(p.streamOff)+len(p.streams)) * 4},
		{"barrier", uintptr(len(p.Barrier.Off)+len(p.Barrier.IDs)) * 4},
		{"workers", uintptr(cap(p.workers)) * unsafe.Sizeof(Worker{})},
	}
	var total uintptr
	for _, s := range slabs {
		total += s.bytes
		t.Logf("%-12s %6d B (%.1f per instruction)", s.name, s.bytes, float64(s.bytes)/float64(len(p.Instrs)))
	}
	if per := float64(total) / float64(len(p.Instrs)); per > 40 {
		t.Errorf("the Fig 9 Medium Program takes %d bytes, %.1f per instruction, budget 40", total, per)
	}
	// Compile proves the Program runs by walking its plain timeline into
	// the memo, one slab.
	if p.plain.set == 0 {
		t.Error("a compiled Program holds no plain timeline: Compile proved it runs on some other walk")
	}
	memo := uintptr(cap(p.plain.spans)) * 8
	t.Logf("%-12s %6d B (%.1f per instruction)", "plain memo", memo, float64(memo)/float64(len(p.Instrs)))
	if per := float64(memo) / float64(len(p.Instrs)); per > 16 {
		t.Errorf("the plain timeline takes %d bytes, %.1f per instruction, budget 16", memo, per)
	}
	if raceEnabled {
		return // the race detector empties sync.Pool at random
	}
	if allocs := testing.AllocsPerRun(10, func() { p.plain = timeline{}; p.Plain() }); allocs != 1 {
		t.Errorf("a first Plain allocates %.1f times, want 1", allocs)
	}
}

// walkPlain times p on a walk of its own under Plain's Timing — the memo's
// reference.
func walkPlain(p *Program) (start, end []int64, makespan int64, ran int) {
	n := len(p.Instrs)
	start, end = make([]int64, n), make([]int64, n)
	var w Walk
	w.Reset(p, Timing{Lat: p.Durations}, start, end)
	w.Run()
	return start, end, w.Makespan(), w.Ended()
}

// checkPlain requires p's plain timeline to equal a fresh walk of p.
func checkPlain(t *testing.T, label string, p *Program) {
	t.Helper()
	start, end, makespan, ran := p.Plain()
	wantStart, wantEnd, wantMakespan, wantRan := walkPlain(p)
	if !slices.Equal(start, wantStart) || !slices.Equal(end, wantEnd) || makespan != wantMakespan || ran != wantRan {
		t.Errorf("%s: the plain timeline (makespan %d, %d ran) is not the walk's (makespan %d, %d ran)", label, makespan, ran, wantMakespan, wantRan)
	}
}

// TestPlainMemoIsNeverStale changes a compiled Program, whose plain
// timeline Compile memoized, the two ways an unshared Program may change:
// a Renumber, whose IDs the spans are keyed by, must drop the memo, so the
// next Plain walks the Program as it now is; a SetCostTable keeps it, and
// the memo still equals a fresh walk, which never reads the table.
func TestPlainMemoIsNeverStale(t *testing.T) {
	sh := Shape{DP: 3, PP: 3, MB: 4, Iter: 2}
	p, err := Compile(New(sh, Durations{F: 2, BInput: 3, BWeight: 1, Opt: 2, Comm: 1}, nil, decouple(FaultFree1F1B(sh, UnitSlots).Placements)))
	if err != nil {
		t.Fatal(err)
	}
	if p.plain.set == 0 {
		t.Fatal("Compile did not memoize the plain timeline")
	}
	checkPlain(t, "compiled", p)
	order := make([]int32, len(p.Instrs))
	for k, i := range rand.New(rand.NewSource(7)).Perm(len(order)) {
		order[k] = int32(i)
	}
	p.Renumber(order)
	if p.plain.set != 0 {
		t.Error("Renumber kept the plain timeline of the old IDs")
	}
	checkPlain(t, "renumbered", p)
	if err := p.SetCostTable(NewCostTable(sh, func(w Worker, ty OpType) int64 { return 2 * UnitSlots.Of(ty) })); err != nil {
		t.Fatal(err)
	}
	if p.plain.set == 0 {
		t.Error("SetCostTable dropped the plain timeline")
	}
	checkPlain(t, "re-costed", p)
}

// TestConcurrentFirstPlainUsesShareOneSlab releases sixteen goroutines on
// one Program's first Plain at once: every one must get the same slab,
// holding the walk's timeline. CI runs it under the race detector.
func TestConcurrentFirstPlainUsesShareOneSlab(t *testing.T) {
	p, err := Compile(FaultFree1F1B(Shape{DP: 4, PP: 3, MB: 8, Iter: 1}, UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	p.plain = timeline{} // Compile's memo: the users race on a first walk instead

	const users = 16
	slabs := make([]*int64, users)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for u := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s, _, _, _ := p.Plain()
			slabs[u] = &s[0]
		}()
	}
	close(start)
	wg.Wait()
	for u, s := range slabs {
		if s != slabs[0] {
			t.Fatalf("user %d got a slab of its own", u)
		}
	}
	checkPlain(t, "shared", p)
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
		{"gate on a forward", "not an optimizer", func(p *Program) { p.Instrs[firstF].gated = true }},
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
			for i := range p.Instrs {
				p.Instrs[i].gated = false // no gate to trip over the short group first
			}
			p.Barrier.IDs = p.Barrier.IDs[1:]
			for g := 1; g < len(p.Barrier.Off); g++ {
				p.Barrier.Off[g]--
			}
		}},
		{"step before its gradients", "deadlocks", func(p *Program) {
			// Move the optimizer to the head of its worker's stream: its own
			// weight gradients now wait on it in stream order.
			s := p.Stream(p.Op(lastOpt).Worker())
			copy(s[1:], s[:len(s)-1])
			s[0] = int32(lastOpt)
		}},
	}
	for _, c := range cases {
		p, err := Compile(FaultFree1F1B(sh, UnitSlots))
		if err != nil {
			t.Fatal(err)
		}
		if p.Type(firstF) != F || p.Type(lastOpt) != Optimizer {
			t.Fatalf("instructions %d and %d are %s and %s, not a forward and an optimizer", firstF, lastOpt, p.Op(firstF), p.Op(lastOpt))
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
		if op := p.Op(i); op.Type == F && op.Stage == 1 {
			p.Deps(i)[0].From = int32(i) // self-edge: wrong producer type
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
