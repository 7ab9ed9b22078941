package schedule

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// decouple splits every coupled B of a unit-slot schedule into BInput
// followed by BWeight inside the same span, the form Decoupled BackProp
// plans take.
func decouple(ps []Placement) []Placement {
	var out []Placement
	for _, p := range ps {
		if p.Op.Type != B {
			out = append(out, p)
			continue
		}
		bi, bw := p, p
		bi.Op.Type, bi.End = BInput, p.Start+UnitSlots.BInput
		bw.Op.Type, bw.Start = BWeight, bi.End
		out = append(out, bi, bw)
	}
	return out
}

// mutate applies one random defect to the placements: the kinds of damage
// Compile and Validate exist to reject.
func mutate(rng *rand.Rand, sh Shape, ps []Placement) ([]Placement, map[Worker]bool) {
	i := rng.Intn(len(ps))
	switch rng.Intn(8) {
	case 0: // drop an op
		return append(ps[:i:i], ps[i+1:]...), nil
	case 1: // place an op twice
		return append(ps, ps[i]), nil
	case 2: // shift an op, keeping its duration
		d := int64(rng.Intn(7) - 3)
		ps[i].Start, ps[i].End = ps[i].Start+d, ps[i].End+d
	case 3: // stretch an op
		ps[i].End += int64(1 + rng.Intn(2))
	case 4: // move an op to a peer (an optimizer's home moves with it)
		if ps[i].Op.Exec = rng.Intn(sh.DP); ps[i].Op.Type == Optimizer {
			ps[i].Op.Home = ps[i].Op.Exec
		}
	case 5: // re-type an op (an optimizer carries no micro-batch to re-type into,
		// and an op re-typed into one runs on its home with MB -1, as every
		// optimizer a Program can hold does)
		if ps[i].Op.Type != Optimizer {
			if ps[i].Op.Type = OpType(rng.Intn(5)); ps[i].Op.Type == Optimizer {
				ps[i].Op.MB, ps[i].Op.Home = -1, ps[i].Op.Exec
			}
		}
	case 6: // fail the worker under an op
		return ps, map[Worker]bool{ps[i].Op.Worker(): true}
	case 7: // a stray weight gradient after an op
		extra := ps[i]
		if extra.Op.Type != Optimizer {
			extra.Op.Type, extra.Start, extra.End = BWeight, ps[i].End, ps[i].End+1
			return append(ps, extra), nil
		}
	}
	return ps, nil
}

// sameError requires two rejections to carry the same text. Where the
// reference walks a map (optimizer checks), re-sorts with an unstable sort
// (overlap) or visits micro-batches where Validate visits instructions
// (dependency timing), several violations race for the report; there only
// the kind of violation must agree. A weight gradient missing from a
// group no optimizer gates is one violation named two ways: Validate names
// the group, the reference its micro-batch.
func sameError(t testing.TB, what string, got, want error) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: got %v, reference %v", what, got, want)
		}
		return
	}
	if got.Error() == want.Error() {
		return
	}
	for _, kind := range []string{"all-reduce is ready", "after optimizer starts", "before previous iteration optimizer ends", "overlap", " starts at ", "missing "} {
		if strings.Contains(got.Error(), kind) && strings.Contains(want.Error(), kind) {
			return
		}
	}
	t.Fatalf("%s:\n      got %v\nreference %v", what, got, want)
}

// withBarrierEdges returns p in the form the references build and read:
// every instruction with its ID, op and edges, a gated optimizer's barrier
// spelled out as DepAllReduce edges (Producers), and the streams in a map.
func withBarrierEdges(p *Program) *refProgram {
	q := &refProgram{Instrs: make([]refInstr, len(p.Instrs)), Streams: make(map[Worker][]int), workers: p.Workers()}
	for i := range q.Instrs {
		q.Instrs[i] = refInstr{ID: i, Op: p.Op(i), Dur: p.Instrs[i].Dur}
		if deps := p.Producers(i); len(deps) > 0 {
			q.Instrs[i].Deps = slices.Clone(deps)
		}
	}
	for _, w := range p.Workers() {
		for _, id := range p.Stream(w) {
			q.Streams[w] = append(q.Streams[w], int(id))
		}
	}
	return q
}

// trial is one differential case: the fault-free 1F1B schedule of a shape,
// optionally decoupled, carrying random defects, compiled and validated
// under a memory cap.
type trial struct {
	sh       Shape
	decouple bool
	defects  int
	memCap   int
}

// checkTrial runs one trial against the references: the Program Compile
// builds equals the reference's field by field — the barrier expanded into
// the all-reduce edges the reference attaches — and every rejection keeps
// its text. Validate returns Compile's rejection verbatim; a schedule
// Compile accepts gets validateRef's verdict. rng draws the defects and one
// edge corruption of the compiled Program, whose structural verdict must
// match too. It reports whether Compile rejected the schedule.
func checkTrial(t testing.TB, rng *rand.Rand, c trial) (rejected bool) {
	t.Helper()
	ps := append([]Placement(nil), FaultFree1F1B(c.sh, UnitSlots).Placements...)
	if c.decouple {
		ps = decouple(ps)
	}
	var failed map[Worker]bool
	for defects := c.defects; defects > 0; defects-- {
		ps, failed = mutate(rng, c.sh, ps)
	}
	s := New(c.sh, UnitSlots, failed, ps)
	what := fmt.Sprintf("%+v", c)

	got, gerr := Compile(s)
	want, werr := compileRef(s)
	sameError(t, what+": compile", gerr, werr)
	if gerr == nil {
		if !reflect.DeepEqual(withBarrierEdges(got), want) {
			t.Fatalf("%s: compiled Program differs from the reference", what)
		}
		// Corrupt one edge and compare the structural verdicts.
		if i := rng.Intn(len(got.Instrs)); len(got.Deps(i)) > 0 {
			d := &got.Deps(i)[rng.Intn(len(got.Deps(i)))]
			d.From = int32(rng.Intn(len(got.Instrs)))
			if err := got.Validate(); err == nil {
				// Edges are consistent, so the walk decided: both
				// algorithms must have found the graph acyclic.
				if ref := withBarrierEdges(got).checkAcyclicRef(); ref != nil {
					t.Fatalf("%s: the walk ran what the reference rejects: %v", what, ref)
				}
			} else if strings.Contains(err.Error(), "deadlocks") {
				sameError(t, what+": acyclic", err, withBarrierEdges(got).checkAcyclicRef())
			}
		}
	}
	// Validate returns Compile's rejection as it is, and checks what
	// Compile accepts as the reference does.
	cfg := ValidateConfig{MemCap: c.memCap}
	if verr := Validate(s, cfg); gerr != nil {
		if verr == nil || verr.Error() != gerr.Error() {
			t.Fatalf("%s: validate: got %v, want Compile's %v", what, verr, gerr)
		}
	} else {
		sameError(t, what+": validate", verr, validateRef(s, cfg))
	}
	return gerr != nil
}

// TestCompileValidateMatchReference is the differential oracle of the
// dense-index Compile, Program.Validate and Validate: on sound schedules
// (coupled and decoupled, one or two iterations) and on schedules carrying one or two random defects, checkTrial
// holds.
func TestCompileValidateMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	rejected := 0
	for range 600 {
		c := trial{sh: Shape{DP: 1 + rng.Intn(4), PP: 1 + rng.Intn(4), MB: 1 + rng.Intn(6), Iter: 1 + rng.Intn(2)}}
		c.sh.MB = max(c.sh.MB, c.sh.PP)
		c.decouple, c.defects = rng.Intn(2) == 0, rng.Intn(3)
		c.memCap = rng.Intn(3) * c.sh.MB
		if checkTrial(t, rng, c) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no mutated schedule was rejected: the generator lost its defects")
	}
}

// FuzzCompileValidate runs checkTrial on trials drawn from the fuzz input:
// the shape, the decoupling, the defect count, the memory cap, and the
// seed the defects are drawn from.
func FuzzCompileValidate(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), uint8(0), false, uint8(0), uint8(0), int64(1))
	f.Add(uint8(1), uint8(2), uint8(2), uint8(1), true, uint8(1), uint8(1), int64(2))
	f.Add(uint8(3), uint8(1), uint8(5), uint8(0), true, uint8(2), uint8(2), int64(3))
	// DP2×PP2×MB2, coupled, one defect: a stray weight gradient lands
	// before its micro-batch's B, which Compile rejects as a duplicate.
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), false, uint8(1), uint8(0), int64(57))
	// DP1×PP1×MB1, two iterations, two defects: a B re-typed into a BInput
	// of the wrong duration and a group left without a weight gradient,
	// which Validate reports in the reference's order, duration first.
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), false, uint8(2), uint8(1), int64(-12))
	f.Fuzz(func(t *testing.T, dp, pp, mb, iter uint8, decoupled bool, defects, memCap uint8, seed int64) {
		sh := Shape{DP: 1 + int(dp%4), PP: 1 + int(pp%4), MB: 1 + int(mb%6), Iter: 1 + int(iter%2)}
		sh.MB = max(sh.MB, sh.PP)
		checkTrial(t, rand.New(rand.NewSource(seed)), trial{
			sh: sh, decouple: decoupled, defects: int(defects % 3), memCap: int(memCap%3) * sh.MB,
		})
	})
}

// TestRejectionsKeepTheirText pins the text of every rejection the failure
// path can surface — flight-recorder dumps and the splice oracle compare
// them as strings.
func TestRejectionsKeepTheirText(t *testing.T) {
	one := Shape{DP: 1, PP: 1, MB: 2, Iter: 1}
	two := Shape{DP: 1, PP: 2, MB: 2, Iter: 1}
	edit := func(sh Shape, f func(ps []Placement) []Placement) *Schedule {
		return New(sh, UnitSlots, nil, f(append([]Placement(nil), FaultFree1F1B(sh, UnitSlots).Placements...)))
	}
	first := func(ps []Placement, t OpType, stage int) int {
		for i, p := range ps {
			if p.Op.Type == t && p.Op.Stage == stage {
				return i
			}
		}
		panic("no such placement")
	}
	compile := func(s *Schedule) error { _, err := Compile(s); return err }
	validate := func(s *Schedule) error { return Validate(s, ValidateConfig{}) }
	w00 := Worker{Stage: 0, Pipeline: 0}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"compile: duplicate F", compile(edit(two, func(ps []Placement) []Placement { return append(ps, ps[first(ps, F, 0)]) })),
			"schedule: compile: duplicate F for it0:F(mb0,p0)@W0_0 (instr 0 and 1)"},
		{"compile: missing upstream forward", compile(edit(two, func(ps []Placement) []Placement { i := first(ps, F, 0); return append(ps[:i:i], ps[i+1:]...) })),
			"schedule: compile: it0:F(mb0,p0)@W0_1 has no upstream forward"},
		{"compile: all-reduce incomplete", compile(edit(one, func(ps []Placement) []Placement { i := first(ps, B, 0); return append(ps[:i:i], ps[i+1:]...) })),
			"schedule: compile: it0:OPT@W0_0 gates on 1 weight gradients, want 2"},
		// A weight gradient placed before its micro-batch's coupled B is
		// a duplicate: Validate returns Compile's rejection.
		{"validate: stray weight gradient", validate(edit(two, func(ps []Placement) []Placement {
			return append(ps, Placement{Op: Op{Stage: 0, MB: 1, Home: 0, Type: BWeight, Exec: 0}, Start: 2, End: 3})
		})), "schedule: compile: duplicate weight gradient for it0:B(mb1,p0)@W0_0 (instr 3 and 8)"},
		// Without its optimizer, a group short of a weight gradient
		// compiles; Validate counts every group.
		{"validate: ungated group short", validate(edit(two, func(ps []Placement) []Placement {
			var short []Placement
			for _, p := range decouple(ps) {
				if p.Op.Stage != 1 || p.Op.Type != Optimizer && (p.Op.Type != BWeight || p.Op.MB != 0) {
					short = append(short, p)
				}
			}
			return short
		})), "schedule: stage 1 all-reduce of iteration 0 is missing 1 of its 2 weight gradients"},
		{"validate: overlap", validate(edit(one, func(ps []Placement) []Placement {
			i := first(ps, B, 0)
			ps[i].Start, ps[i].End = ps[i].Start+1, ps[i].End+1
			return ps
		})), "schedule: worker W0_0 overlap: it0:F(mb1,p0)@W0_0 starts 3 before previous op ends 4"},
		{"validate: failed worker", Validate(New(one, UnitSlots, map[Worker]bool{w00: true}, append([]Placement(nil), FaultFree1F1B(one, UnitSlots).Placements...)), ValidateConfig{}),
			"schedule: op it0:F(mb0,p0)@W0_0 placed on failed worker"},
		{"program: cycle", assembleErr(one, []Op{{Type: F}, {Type: B}}, map[int][]Dep{0: {{From: 1, Kind: DepLocal}}, 1: {{From: 0, Kind: DepLocal}}}),
			"schedule: program deadlocks: 2 of 2 instructions are on a dependency cycle"},
		{"program: bad edge", assembleErr(one, []Op{{Type: F}, {Type: B}}, map[int][]Dep{1: {{From: 0, Kind: DepActivation}}}),
			"schedule: program: edge 0->1: activation edge must link F(i-1) to F(i) of one micro-batch: it0:F(mb0,p0)@W0_0 -> it0:B(mb0,p0)@W0_0"},
	}
	for _, c := range cases {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s:\n got %v\nwant %s", c.name, c.err, c.want)
		}
	}
}

// TestOutOfShapeIsRejectedNotIndexed feeds ops outside the Shape's
// rectangle — and a Shape far larger than its placements, as a corrupt plan
// off the wire could claim — to everything that keys tables by the dense op
// index: each must answer with an error, never a panic or an allocation
// sized by the bogus shape.
func TestOutOfShapeIsRejectedNotIndexed(t *testing.T) {
	sh := Shape{DP: 2, PP: 2, MB: 2, Iter: 1}
	base := FaultFree1F1B(sh, UnitSlots).Placements
	for _, stray := range []Op{
		{Stage: 2, Type: F}, {Stage: -1, Type: F}, {MB: 2, Type: B}, {Home: 2, Exec: 1, Type: F},
		{Exec: 2, Type: F}, {Iter: 1, Type: F}, {Exec: -1, MB: -1, Type: Optimizer}, {Stage: 2, MB: -1, Type: Optimizer},
	} {
		ps := append(append([]Placement(nil), base...), Placement{Op: stray, Start: 100, End: 101})
		s := New(sh, UnitSlots, nil, ps)
		if _, err := Compile(s); err == nil {
			t.Errorf("Compile accepted %s outside %+v", stray, sh)
		}
		if err := Validate(s, ValidateConfig{}); err == nil {
			t.Errorf("Validate accepted %s outside %+v", stray, sh)
		}
	}
	for _, huge := range []Shape{{DP: 1 << 20, PP: 1 << 20, MB: 1 << 20, Iter: 1 << 20}, {DP: 1 << 30, PP: 1, MB: 1, Iter: 1}, {DP: 1 << 62, PP: 2, MB: 2, Iter: 2}} {
		s := New(huge, UnitSlots, nil, append([]Placement(nil), base...))
		if _, err := Compile(s); err == nil {
			t.Errorf("Compile accepted %d placements for shape %+v", len(base), huge)
		}
		if err := Validate(s, ValidateConfig{}); err == nil {
			t.Errorf("Validate accepted %d placements for shape %+v", len(base), huge)
		}
	}
	if got := (Shape{DP: 2, PP: 3, MB: 4, Iter: 5}).Triples(); got != 120 {
		t.Errorf("Triples() = %d, want 120", got)
	}
}

// TestCompileAllocationBudget gates Compile's allocations, which — unlike
// its time — are deterministic: a DP4×PP4×MB8 iteration (272 instructions)
// must lower in at most 0.5 allocations per instruction. The map-keyed
// Compile paid 1 455 here (5.35 per instruction: five maps, one Deps slice
// per instruction, one append chain per stream); the dense one allocates
// the Program, its Instrs, one edge slab, one int32 slab for the streams
// and the barrier, and the worker list.
func TestCompileAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	s := FaultFree1F1B(Shape{DP: 4, PP: 4, MB: 8, Iter: 1}, UnitSlots)
	if _, err := Compile(s); err != nil { // warm the scratch pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Compile(s); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(len(s.Placements)); per > 0.5 {
		t.Fatalf("Compile allocates %.0f times for %d instructions (%.2f per instruction), budget 0.5", allocs, len(s.Placements), per)
	}
}

// canonicalLess is the canonical placement order stated directly on
// placements: (Start, Exec, Stage), then the op's rendering.
func canonicalLess(a, b Placement) int {
	if a.Start != b.Start {
		return cmp.Compare(a.Start, b.Start)
	}
	if a.Op.Exec != b.Op.Exec {
		return cmp.Compare(a.Op.Exec, b.Op.Exec)
	}
	if a.Op.Stage != b.Op.Stage {
		return cmp.Compare(a.Op.Stage, b.Op.Stage)
	}
	return strings.Compare(a.Op.String(), b.Op.String())
}

// TestNewMatchesPlacementSort checks that New's key sort leaves placements
// exactly where sorting the placements themselves would — ties, negative
// and out-of-int32 workers, duplicates and keys equal up to End included.
func TestNewMatchesPlacementSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(200)
		ps := make([]Placement, n)
		for i := range ps {
			p := Placement{Op: Op{Stage: rng.Intn(4) - 1, MB: rng.Intn(3), Home: rng.Intn(3), Type: OpType(rng.Intn(5)), Exec: rng.Intn(4) - 1, Iter: rng.Intn(2)}, Start: int64(rng.Intn(12))}
			switch rng.Intn(20) {
			case 0:
				p.Op.Exec = 1<<40 + rng.Intn(2)
			case 1:
				p.Op.Stage = -1<<35 - rng.Intn(2)
			case 2:
				if i > 0 {
					p = ps[rng.Intn(i)] // a duplicate
				}
			}
			p.End = p.Start + int64(rng.Intn(3))
			ps[i] = p
		}
		want := slices.Clone(ps)
		slices.SortFunc(want, canonicalLess)
		if got := New(Shape{DP: 1, PP: 1, MB: 1, Iter: 1}, UnitSlots, nil, ps).Placements; !slices.Equal(got, want) {
			t.Fatalf("trial %d: New's order differs from sorting the placements", trial)
		}
	}
}

// TestNewAllocationBudget gates New in steady state: it allocates the
// Schedule and nothing else — the keys come from a pool and the placements
// are permuted in place.
func TestNewAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	base := FaultFree1F1B(Shape{DP: 4, PP: 4, MB: 8, Iter: 1}, UnitSlots).Placements
	ps := slices.Clone(base)
	allocs := testing.AllocsPerRun(50, func() {
		copy(ps, base)
		slices.Reverse(ps)
		New(Shape{DP: 4, PP: 4, MB: 8, Iter: 1}, UnitSlots, nil, ps)
	})
	if allocs > 1 {
		t.Fatalf("New allocates %.1f times per call, budget 1", allocs)
	}
}
