package replay

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// diffEngines caches one engine per drawn configuration: the solver is the
// expensive part of a differential case and the fuzzer revisits shapes.
var diffEngines struct {
	sync.Mutex
	byKey map[string]*engine.Engine
}

func diffEngine(dp, pp, mb int, decoupled, scaled bool) *engine.Engine {
	key := fmt.Sprint(dp, pp, mb, decoupled, scaled)
	diffEngines.Lock()
	defer diffEngines.Unlock()
	if eng, ok := diffEngines.byKey[key]; ok {
		return eng
	}
	job, stats := engine.ShapeJob(dp, pp, mb)
	tech := engine.AllTechniques
	tech.DecoupledBackProp = decoupled
	opt := engine.Options{UnrollIterations: 1, Techniques: &tech}
	if scaled {
		scale := make([]float64, pp)
		for i := range scale {
			scale[i] = 1 + float64(i%2)
		}
		opt.CostModel = profile.UniformCost(stats).WithStageScale(scale)
	}
	eng := engine.New(job, stats, opt)
	if diffEngines.byKey == nil {
		diffEngines.byKey = make(map[string]*engine.Engine)
	}
	diffEngines.byKey[key] = eng
	return eng
}

// rebuild assembles a copy of p through schedule.ProgramBuilder with
// deps(i) as instruction i's edges and gated(i) as its gate bit.
func rebuild(t testing.TB, p *schedule.Program, deps func(i int) []schedule.Dep, gated func(i int) bool) *schedule.Program {
	t.Helper()
	edges := 0
	for i := range p.Instrs {
		edges += len(deps(i))
	}
	b := schedule.NewProgramBuilder(p.Shape, p.Durations, p.Failed, len(p.Instrs), edges)
	for i := range p.Instrs {
		b.Instr(p.Op(i), p.Instrs[i].Dur, gated(i))
		for _, d := range deps(i) {
			b.Dep(int(d.From), d.Kind)
		}
	}
	for _, w := range p.Workers() {
		b.Stream(w)
		for _, id := range p.Stream(w) {
			b.Next(int(id))
		}
	}
	q, err := b.Build()
	if err == nil {
		err = q.SetCostTable(p.CostTable())
	}
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// withBarrierEdges returns p in the form the reference reads: every gated
// optimizer's barrier spelled out as DepAllReduce edges in its Deps
// (Producers), and nothing gated.
func withBarrierEdges(t testing.TB, p *schedule.Program) *schedule.Program {
	return rebuild(t, p, p.Producers, func(int) bool { return false })
}

// sameSplice requires Splice to reproduce the reference on one input — the
// reference walking the barrier as the edges it stands for — with equal
// error strings, or artifacts equal field by field up to instruction
// numbering: instructions are matched by op, and each must carry the same
// duration, gate, producers and Done end, sit at the same place in its
// worker's stream and barrier group, and run for the span the reference's
// sweep placed it at. It returns Splice's artifact (nil when both rejected
// the input).
func sameSplice(t testing.TB, tally *diffTally, what string, in SpliceInput) *Spliced {
	t.Helper()
	got, gerr := Splice(in)
	ref := in
	ref.Prog = withBarrierEdges(t, in.Prog)
	want, werr := spliceRef(ref)
	if gerr != nil || werr != nil {
		tally.rejected++
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%s: Splice error %v, reference error %v", what, gerr, werr)
		}
		tally.texts = append(tally.texts, gerr.Error())
		return nil
	}
	// The splice's own walk is its deadlock proof; the full audit must
	// agree on every artifact it accepts.
	if err := got.Program.Validate(); err != nil {
		t.Fatalf("%s: spliced program invalid: %v", what, err)
	}
	check := func(field string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s differs from the reference\n got: %v\nwant: %v", what, field, g, w)
		}
	}
	gp, wp := got.Program, want.Program
	check("Program.Shape", gp.Shape, wp.Shape)
	check("Program.Durations", gp.Durations, wp.Durations)
	check("Program.Failed", gp.Failed, wp.Failed)
	check("Program.CostTable", gp.CostTable(), wp.CostTable())
	check("Program.Workers", gp.Workers(), wp.Workers())
	check("len(Program.Instrs)", len(gp.Instrs), len(wp.Instrs))
	check("len(Done)", len(got.Done), len(want.Done))
	placed := make(map[schedule.Op]schedule.Placement, len(want.Schedule.Placements))
	for _, pl := range want.Schedule.Placements {
		placed[pl.Op] = pl
	}
	// ops names instructions by op, the identity renumbering keeps.
	ops := func(p *schedule.Program, ids []int32) []schedule.Op {
		out := make([]schedule.Op, len(ids))
		for n, id := range ids {
			out[n] = p.Op(int(id))
		}
		return out
	}
	wantID := make(map[schedule.Op]int, len(wp.Instrs))
	for j := range wp.Instrs {
		wantID[wp.Op(j)] = j
	}
	for i := range gp.Instrs {
		op := gp.Op(i)
		j, ok := wantID[op]
		if !ok {
			t.Fatalf("%s: Splice emits %s, the reference does not", what, op)
		}
		check(op.String()+" Dur", gp.Instrs[i].Dur, wp.Instrs[j].Dur)
		check(op.String()+" gated", gp.Gated(i), wp.Gated(j))
		gd, gok := got.Done[i]
		wd, wok := want.Done[j]
		check(op.String()+" Done", [2]any{gd, gok}, [2]any{wd, wok})
		check(op.String()+" span", [2]int64{got.Exec.Start[i], got.Exec.End[i]}, [2]int64{placed[op].Start, placed[op].End})
		gdeps, wdeps := gp.Deps(i), wp.Deps(j)
		check(op.String()+" producers", len(gdeps), len(wdeps))
		for n := range gdeps {
			check(op.String()+" producer", [2]any{gdeps[n].Kind, gp.Op(int(gdeps[n].From))}, [2]any{wdeps[n].Kind, wp.Op(int(wdeps[n].From))})
		}
	}
	for _, w := range wp.Workers() {
		check(fmt.Sprintf("Program.Stream(%s)", w), ops(gp, gp.Stream(w)), ops(wp, wp.Stream(w)))
	}
	for g := 0; g+1 < len(wp.Barrier.Off); g++ {
		gops, wops := ops(gp, gp.Barrier.Group(g)), ops(wp, wp.Barrier.Group(g))
		slices.SortFunc(gops, func(a, b schedule.Op) int { return wantID[a] - wantID[b] })
		check(fmt.Sprintf("Program.Barrier.Group(%d)", g), gops, wops)
	}
	check("Floors", got.Floors, want.Floors)
	check("Failed", got.Failed, want.Failed)
	check("LostIDs", got.LostIDs, want.LostIDs)
	check("Exec.Makespan", got.Exec.Makespan, want.EndSlot)
	check("counters",
		[]int64{int64(got.PrefixOps), int64(got.LostOps), int64(got.SuffixOps), int64(got.ReroutedOps), got.LostSlots, int64(got.MigratedTriples)},
		[]int64{int64(want.PrefixOps), int64(want.LostOps), int64(want.SuffixOps), int64(want.ReroutedOps), want.LostSlots, int64(want.MigratedTriples)})
	// With several split stages the reference names whichever its map
	// iteration visits last; whether the cut splits one is deterministic.
	check("splitStage >= 0", got.splitStage >= 0, want.splitStage >= 0)
	tally.spliced++
	if got.LostOps > 0 {
		tally.lost++
	}
	if got.ReroutedOps > 0 {
		tally.rerouted++
	}
	if len(in.Rejoin) > 0 {
		tally.rejoined++
	}
	if got.Program.OpCount(schedule.BWeight) > 0 {
		tally.decoupled++
	}
	return got
}

// diffTally counts what the drawn cases exercised, so the test can tell a
// generator that stopped reaching a path from one that found no difference.
type diffTally struct {
	spliced, rejected, lost, rerouted, rejoined, decoupled, cascaded int
	texts                                                            []string // every rejection's text, in draw order
}

// checkRejections fails unless a sweep drew exactly the pinned rejections:
// their count and the FNV-64a digest of their texts, in draw order, each
// ended by a newline. A splice that rejects other inputs, or names another
// offender, moves one of them.
func checkRejections(t *testing.T, sweep string, tally *diffTally, n int, digest uint64) {
	t.Helper()
	h := fnv.New64a()
	for _, s := range tally.texts {
		io.WriteString(h, s+"\n")
	}
	if got := h.Sum64(); len(tally.texts) != n || got != digest {
		t.Errorf("%s: %d rejections hashing to %#016x, pinned %d hashing to %#016x; the texts:\n%s",
			sweep, len(tally.texts), got, n, digest, strings.Join(tally.texts, "\n"))
	}
}

// drawEvent draws a membership event against the failed set: a failure of
// one or two live workers (every stage keeps a live peer), a re-join, or a
// same-instant swap. It returns nils when the draw has no legal event.
func drawEvent(rng *rand.Rand, dp, pp int, failed map[schedule.Worker]bool) (fail, rejoin []schedule.Worker) {
	var downed []schedule.Worker
	for w := range failed {
		downed = append(downed, w)
	}
	schedule.SortWorkers(downed)
	kind := rng.Intn(3) // 0 fail, 1 rejoin, 2 swap
	if kind != 0 && len(downed) > 0 {
		rejoin = []schedule.Worker{downed[rng.Intn(len(downed))]}
	}
	if kind == 1 && rejoin != nil {
		return nil, rejoin
	}
	after := make(map[schedule.Worker]bool, len(failed)+2)
	for w := range failed {
		after[w] = true
	}
	for victims := 1 + rng.Intn(2); victims > 0; victims-- {
		for tries := 0; tries < 20; tries++ {
			w := schedule.Worker{Stage: rng.Intn(pp), Pipeline: rng.Intn(dp)}
			live := 0
			for k := 0; k < dp; k++ {
				if !after[schedule.Worker{Stage: w.Stage, Pipeline: k}] {
					live++
				}
			}
			if !after[w] && live >= 2 {
				after[w] = true
				fail = append(fail, w)
				break
			}
		}
	}
	return fail, rejoin
}

// diffCase runs one randomly drawn splice — and, half the time, a second
// event on the spliced Program, resumed from its Done/Floors — through
// Splice and the reference. One draw in eight is made illegal first, so
// rejections are compared too.
func diffCase(t testing.TB, tally *diffTally, rng *rand.Rand) {
	dp, pp, mb := 2+rng.Intn(5), 2+rng.Intn(3), 2+rng.Intn(7)
	eng := diffEngine(dp, pp, mb, rng.Intn(2) == 0, rng.Intn(4) == 0)
	failed := make(map[schedule.Worker]bool)
	if rng.Intn(2) == 0 {
		failed[schedule.Worker{Stage: rng.Intn(pp), Pipeline: rng.Intn(dp)}] = true
	}
	prog, err := eng.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var done map[int]int64
	var floors map[schedule.Worker]int64
	cut, end := int64(0), full.Makespan
	for depth := 1; depth <= 2; depth++ {
		if cut+1 >= end {
			return
		}
		cut += 1 + rng.Int63n(end-cut-1+int64(depth%2)) // depth 1 may cut at the makespan itself
		fail, rejoin := drawEvent(rng, dp, pp, failed)
		if fail == nil && rejoin == nil {
			return
		}
		var release map[schedule.Worker]int64
		if rng.Intn(2) == 0 {
			release = make(map[schedule.Worker]int64)
			if len(fail) > 0 {
				for _, w := range prog.Workers() {
					release[w] = cut + int64(rng.Intn(4))
				}
			}
			for _, w := range rejoin {
				release[w] = cut + int64(rng.Intn(6))
			}
		}
		cutOpt := sim.ProgramOptions{CutAt: cut, Done: done, ReleaseAt: floors}
		for _, w := range fail {
			if cutOpt.FailAt == nil {
				cutOpt.FailAt = make(map[schedule.Worker]int64)
			}
			cutOpt.FailAt[w] = cut
		}
		cutEx, err := sim.ExecuteProgram(prog, cutOpt)
		if err != nil {
			t.Fatal(err)
		}
		in := SpliceInput{
			Prog: prog, Starts: cutEx.Start, Ends: cutEx.End,
			Cut: cut, Fail: fail, Rejoin: rejoin, Release: release,
		}
		if rng.Intn(8) == 0 {
			live := schedule.Worker{Stage: rng.Intn(pp), Pipeline: rng.Intn(dp)}
			switch rng.Intn(6) {
			case 0: // a victim that is already down, or a re-joiner that is up
				in.Fail = append(append([]schedule.Worker(nil), fail...), rejoin...)
				in.Rejoin = []schedule.Worker{live}
			case 1: // fail and re-join in one event
				in.Fail, in.Rejoin = rejoin, rejoin
			case 2: // a whole stage dies
				in.Fail = nil
				for k := 0; k < dp; k++ {
					if w := (schedule.Worker{Stage: live.Stage, Pipeline: k}); !failed[w] {
						in.Fail = append(in.Fail, w)
					}
				}
			case 3:
				in.Cut = -cut
			case 4:
				in.Ends = in.Ends[:len(in.Ends)-1]
			case 5: // spans of a different run: the prefix no longer matches the cut
				in.Starts, in.Ends = full.Start, full.End
			}
		}
		what := fmt.Sprintf("DP%d PP%d MB%d depth %d cut %d/%d fail %v rejoin %v failed %v", dp, pp, mb, depth, in.Cut, end, in.Fail, in.Rejoin, failed)
		spl := sameSplice(t, tally, what, in)
		if spl != nil {
			tally.cascaded += depth - 1
		}
		if spl == nil || rng.Intn(2) == 0 {
			return
		}
		prog, done, floors, failed, end = spl.Program, spl.Done, spl.Floors, spl.Failed, spl.Exec.Makespan
	}
}

// TestSpliceMatchesReference is the differential oracle of the dense-index
// Splice: over random shapes (coupled and decoupled, uniform and
// stage-scaled costs), cuts across the whole makespan including the
// all-reduce epilogue, one or two victims, re-joins, swaps and depth-2
// cascades, the artifact equals the map-keyed reference's field by field
// and rejections carry the same text.
func TestSpliceMatchesReference(t *testing.T) {
	cases := 400
	if testing.Short() {
		cases = 60
	}
	rng := rand.New(rand.NewSource(16))
	var tally diffTally
	for i := 0; i < cases; i++ {
		diffCase(t, &tally, rng)
	}
	counts := tally
	counts.texts = nil
	t.Logf("%+v", counts)
	if tally.rejected == 0 || tally.lost == 0 || tally.rerouted == 0 || tally.rejoined == 0 || tally.decoupled == 0 || tally.cascaded == 0 {
		t.Fatalf("the drawn cases no longer reach every path: %+v", counts)
	}
	if !testing.Short() {
		checkRejections(t, "the full sweep", &tally, 64, 0x1713e23943f40246)
	}
}

// TestFuzzSeedsKeepTheirRejections runs FuzzSplice's seed corpus through
// the oracle and pins the rejections it draws.
func TestFuzzSeedsKeepTheirRejections(t *testing.T) {
	var tally diffTally
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		diffCase(t, &tally, rand.New(rand.NewSource(seed)))
	}
	checkRejections(t, "FuzzSplice's seeds", &tally, 2, 0xa252315ccd2b9d3c)
}

// fuzzSeeds is the size of FuzzSplice's seed corpus: seeds 0 to fuzzSeeds-1.
const fuzzSeeds = 8

// FuzzSplice drives the same oracle from fuzzer-chosen seeds.
func FuzzSplice(f *testing.F) {
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		diffCase(t, new(diffTally), rand.New(rand.NewSource(seed)))
	})
}

// TestSpliceErrorIsDeterministic hands Splice a hand-assembled Program in
// which two micro-batches, homed on different pipelines, lack their
// upstream forward. Splice does not validate its input, so wiring the
// suffix's edges is what notices; emitting the streams in worker order makes
// the error it returns a pure function of the input (the map-ordered sweep
// of the reference named one micro-batch or the other from run to run).
func TestSpliceErrorIsDeterministic(t *testing.T) {
	sh := schedule.Shape{DP: 2, PP: 2, MB: 1, Iter: 1}
	b := schedule.NewProgramBuilder(sh, schedule.UnitSlots, nil, sh.DP, 0)
	for home := 0; home < sh.DP; home++ {
		// Stage 1 of each pipeline holds a forward whose stage-0 producer
		// does not exist.
		b.Instr(schedule.Op{Stage: 1, MB: 0, Home: home, Exec: home, Type: schedule.F}, 0, false)
	}
	for home := 0; home < sh.DP; home++ {
		b.Stream(schedule.Worker{Stage: 1, Pipeline: home})
		b.Next(home)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := SpliceInput{Prog: p, Starts: []int64{-1, -1}, Ends: []int64{-1, -1}, Cut: 1}
	_, err = Splice(in)
	if err == nil || !strings.Contains(err.Error(), "has no upstream forward") {
		t.Fatalf("want a missing-upstream-forward rejection, got %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, again := Splice(in); again == nil || again.Error() != err.Error() {
			t.Fatalf("call %d returned %v, first call returned %v", i, again, err)
		}
	}
}

// TestLiveSpliceAllocationBudget gates what one membership event allocates,
// which — unlike its time — is deterministic: with warm scratch, a
// LiveSplice of a DP4×PP4×MB8 iteration (272 instructions) must stay within
// maxAllocs objects and maxBytes bytes per instruction. The map-keyed
// Splice paid 4 115 objects here (15.1 per instruction); what remains is
// the artifact itself — the Program's Instrs, Deps slab and stream slab,
// its timeline, and the Done/Floors/Failed maps. The plain timeline the
// splice starts from is the Program's memo, walked once, before the runs.
func TestLiveSpliceAllocationBudget(t *testing.T) {
	const maxAllocs, maxBytes = 40, 125
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	job, stats := engine.ShapeJob(4, 4, 8)
	prog := mustProgram(t, engine.New(job, stats, engine.Options{UnrollIterations: 1}), nil)
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev := LiveEvent{Prog: prog, Cut: full.Makespan / 2, Fail: []schedule.Worker{{Stage: 1, Pipeline: 2}}}
	splice := func() {
		if _, err := LiveSplice(ev); err != nil {
			t.Fatal(err)
		}
	}
	// The collector is held off: a collection would empty the scratch pools
	// and charge the measured splices for refilling them.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	splice() // warm the scratch pools
	const runs = 50
	allocs := testing.AllocsPerRun(runs, splice)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		splice()
	}
	runtime.ReadMemStats(&after)
	n := float64(len(prog.Instrs))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
	t.Logf("LiveSplice allocates %.0f times and %.0f bytes per instruction for %.0f instructions", allocs, bytes, n)
	if allocs > maxAllocs {
		t.Errorf("LiveSplice allocates %.0f times for %.0f instructions, budget %d", allocs, n, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("LiveSplice allocates %.0f bytes per instruction, budget %d", bytes, maxBytes)
	}
}
