package engine

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"recycle/internal/planstore"
	"recycle/internal/schedule"
)

// checkServed validates the schedule of one planFor answer against its
// request: the schedule exists, routes around exactly the requested failed
// set, and places no op on a failed worker.
func checkServed(t *testing.T, s *schedule.Schedule, failed map[schedule.Worker]bool) {
	t.Helper()
	if s == nil || len(s.Placements) == 0 {
		t.Fatal("planFor served an empty schedule")
	}
	for w := range failed {
		if !s.Failed[w] {
			t.Fatalf("served schedule does not route around requested failure %s", w)
		}
	}
	if len(s.Failed) != len(failed) {
		t.Fatalf("served schedule fails %d workers, request failed %d", len(s.Failed), len(failed))
	}
	for _, p := range s.Placements {
		if s.Failed[p.Op.Worker()] {
			t.Fatalf("placement %v runs on failed worker %s", p.Op, p.Op.Worker())
		}
	}
}

// drawVictims draws up to maxF distinct workers from a dp x pp grid —
// never a full stage, so every set is plannable.
func drawVictims(rng *rand.Rand, dp, pp, maxF int) map[schedule.Worker]bool {
	k := rng.Intn(maxF + 1)
	if k == 0 {
		return nil
	}
	failed := make(map[schedule.Worker]bool, k)
	for len(failed) < k {
		failed[schedule.Worker{Stage: rng.Intn(pp), Pipeline: rng.Intn(dp)}] = true
	}
	return failed
}

// TestWarmConcurrentWithScheduleStorm runs Warm and a planFor storm
// against the same engine at the same time: every request is answered
// correctly, and Warm still caches every normalized plan it targets.
func TestWarmConcurrentWithScheduleStorm(t *testing.T) {
	job, stats := ShapeJob(4, 3, 6)
	eng := New(job, stats, Options{UnrollIterations: 1})
	const maxF = 2

	warmed := make(chan error, 1)
	go func() { warmed <- eng.Warm(maxF) }()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < 40; i++ {
				failed := drawVictims(rng, 4, 3, maxF)
				p, err := eng.planFor(failed)
				if err != nil {
					t.Errorf("fetch during warm: %v", err)
					return
				}
				checkServed(t, p.Schedule, failed)
			}
		}(g)
	}
	wg.Wait()
	if err := <-warmed; err != nil {
		t.Fatalf("warm alongside storm: %v", err)
	}
	for n := 0; n <= maxF; n++ {
		if p, ok := eng.best(n); !ok || p.Failures != n {
			t.Fatalf("after Warm, best(%d) = (%v, %v), want the %d-failure plan", n, p, ok, n)
		}
	}
}

// TestChurnRaceStress drives a fetch storm over a warmed engine: fetchers
// validate every schedule and Program they are served while they race to
// solve, admit and compile the same keys. Run under -race this is the
// data-race proof for the engine's cache.
func TestChurnRaceStress(t *testing.T) {
	job, stats := ShapeJob(3, 3, 4)
	eng := New(job, stats, Options{UnrollIterations: 1})
	if err := eng.Warm(2); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup

	// Fetch storm: every served schedule and Program is validated against
	// its request; concurrent fetchers race to fill one plan's Program slot.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < 40; i++ {
				failed := drawVictims(rng, 3, 3, 2)
				p, err := eng.planFor(failed)
				if err != nil {
					t.Errorf("fetch under churn: %v", err)
					return
				}
				checkServed(t, p.Schedule, failed)
				prog, err := eng.ProgramFor(failed)
				if err != nil {
					t.Errorf("program fetch under churn: %v", err)
					return
				}
				if len(prog.Failed) != len(failed) {
					t.Errorf("Program fails %v, want %v", prog.Failed, failed)
				}
				for w := range failed {
					if !prog.Failed[w] {
						t.Errorf("Program fails %v, want %v", prog.Failed, failed)
					}
				}
			}
		}(g)
	}

	wg.Wait()
	// The service must still answer cleanly after the storm settles.
	p, err := eng.planFor(map[schedule.Worker]bool{{Stage: 0, Pipeline: 1}: true})
	if err != nil {
		t.Fatal(err)
	}
	checkServed(t, p.Schedule, map[schedule.Worker]bool{{Stage: 0, Pipeline: 1}: true})
}

// TestProgramCodecRoundTrip pins the wire format: a compiled Program
// encodes, decodes back slab for slab, and re-encodes to identical bytes
// (streams are emitted in deterministic worker order).
func TestProgramCodecRoundTrip(t *testing.T) {
	job, stats := ShapeJob(3, 2, 4)
	eng := New(job, stats, Options{UnrollIterations: 1})
	prog, err := eng.ProgramFor(map[schedule.Worker]bool{{Stage: 1, Pipeline: 2}: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProgram(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, prog) {
		t.Fatal("the Program changed across the codec")
	}
	re, err := EncodeProgram(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, re) {
		t.Fatal("encode(decode(data)) != data — stream order is not canonical")
	}
}

// wireProgram is a Program field by field as the codec lays it out: a form
// tests can corrupt in ways a Program's flat slabs cannot hold (an op
// outside the shape, a stream under a foreign worker) and encode as
// EncodeProgram would.
type wireProgram struct {
	shape     schedule.Shape
	durations schedule.Durations
	failed    map[schedule.Worker]bool
	costs     []int64
	instrs    []wireInstr
	streams   []wireStream
}

type wireInstr struct {
	op    schedule.Op
	dur   int64
	gated bool
	deps  []schedule.Dep
}

type wireStream struct {
	worker schedule.Worker
	ids    []int
}

// wireOf spells p out field by field.
func wireOf(p *schedule.Program) *wireProgram {
	wp := &wireProgram{shape: p.Shape, durations: p.Durations, failed: p.Failed, costs: p.CostTable()}
	for i := range p.Instrs {
		wp.instrs = append(wp.instrs, wireInstr{op: p.Op(i), dur: p.Instrs[i].Dur, gated: p.Gated(i), deps: slices.Clone(p.Deps(i))})
	}
	for _, w := range p.Workers() {
		s := wireStream{worker: w}
		for _, id := range p.Stream(w) {
			s.ids = append(s.ids, int(id))
		}
		wp.streams = append(wp.streams, s)
	}
	return wp
}

// encode writes wp as EncodeProgram writes a Program.
func (wp *wireProgram) encode() []byte {
	edges := 0
	for _, in := range wp.instrs {
		edges += len(in.deps)
	}
	var w writer
	w.header(wp.shape, wp.durations, wp.failed)
	w.int(len(wp.costs))
	for _, d := range wp.costs {
		w.varint(d)
	}
	w.int(len(wp.instrs))
	w.int(edges)
	for i, in := range wp.instrs {
		w.op(in.op)
		w.varint(in.dur)
		gate := 0
		if in.gated {
			gate = 1
		}
		w.int(len(in.deps)<<1 | gate)
		for _, d := range in.deps {
			w.varint(int64(i) - int64(d.From))
			w.int(int(d.Kind))
		}
	}
	w.int(len(wp.streams))
	for _, s := range wp.streams {
		w.worker(s.worker)
		w.int(len(s.ids))
		prev := 0
		for _, id := range s.ids {
			w.varint(int64(id - prev))
			prev = id
		}
	}
	return w.b
}

// TestWireProgramMirrorsEncodeProgram keeps the tests' field-by-field
// encoder honest: on an untouched Program it writes EncodeProgram's bytes.
func TestWireProgramMirrorsEncodeProgram(t *testing.T) {
	job, stats := ShapeJob(3, 2, 4)
	prog, err := New(job, stats, Options{UnrollIterations: 1}).ProgramFor(map[schedule.Worker]bool{{Stage: 1, Pipeline: 2}: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireOf(prog).encode(), data) {
		t.Fatal("wireProgram.encode no longer mirrors EncodeProgram")
	}
}

// leafGradient returns the first weight gradient no edge consumes: one
// only the barrier reads.
func leafGradient(p *schedule.Program) int {
	consumed := make([]bool, len(p.Instrs))
	for i := range p.Instrs {
		for _, d := range p.Deps(i) {
			consumed[d.From] = true
		}
	}
	for i := range p.Instrs {
		if t := p.Type(i); (t == schedule.B || t == schedule.BWeight) && !consumed[i] {
			return i
		}
	}
	return -1
}

// without returns wp with instruction drop removed and every later ID
// shifted down one, in edges and streams alike.
func (wp *wireProgram) without(drop int) *wireProgram {
	shift := func(id int) int {
		if id > drop {
			return id - 1
		}
		return id
	}
	q := *wp
	q.instrs, q.streams = nil, nil
	for i, in := range wp.instrs {
		if i == drop {
			continue
		}
		in.deps = slices.Clone(in.deps)
		for j := range in.deps {
			in.deps[j].From = int32(shift(int(in.deps[j].From)))
		}
		q.instrs = append(q.instrs, in)
	}
	for _, s := range wp.streams {
		var ids []int
		for _, id := range s.ids {
			if id != drop {
				ids = append(ids, shift(id))
			}
		}
		q.streams = append(q.streams, wireStream{worker: s.worker, ids: ids})
	}
	return &q
}

// TestProgramCodecRejections pins the codec's refusals: a future version,
// v1 JSON bytes, a v2 blob, an empty program, a plan blob, and a Program
// whose optimizers gate on one weight gradient fewer than DP·MB — which v2
// decoded, because only Compile counted them.
func TestProgramCodecRejections(t *testing.T) {
	job, stats := ShapeJob(2, 2, 4)
	eng := New(job, stats, Options{UnrollIterations: 1})
	prog, err := eng.Program(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeProgram(nil); err == nil {
		t.Fatal("EncodeProgram accepted a nil program")
	}
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	future := bytes.Clone(data)
	future[len(wireMagic)+1]++
	if _, err := DecodeProgram(future); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("DecodeProgram on a future codec version: %v", err)
	}
	v1 := []byte(`{"Version":1,"Shape":{"DP":2,"PP":2,"MB":4,"Iter":1},"Instrs":[{"Op":{}}]}`)
	if _, err := DecodeProgram(v1); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("DecodeProgram on v1 JSON bytes: %v", err)
	}
	// A store written before the barrier holds v2 blobs: the same framing
	// stamped version 2. CompiledProgram treats the "codec version"
	// rejection as a miss and compiles the artifact afresh.
	v2 := bytes.Clone(data)
	v2[len(wireMagic)+1] = 2
	if _, err := DecodeProgram(v2); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("DecodeProgram on a v2 blob: %v", err)
	}
	empty := writer{}
	empty.header(prog.Shape, prog.Durations, nil)
	for range 4 { // no cost table, instructions, edges or streams
		empty.int(0)
	}
	if _, err := DecodeProgram(empty.b); err == nil {
		t.Fatal("DecodeProgram accepted an empty program")
	}
	if _, err := DecodeProgram(otherKind(data)); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Fatalf("DecodeProgram on a blob framed as another kind: %v", err)
	}
	if _, err := DecodeProgram(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("DecodeProgram accepted trailing bytes")
	}

	// Drop one weight gradient no edge consumes from a DP3×PP2×MB4 Program:
	// every other check passes, and the stage's optimizers gate on 11.
	job, stats = ShapeJob(3, 2, 4)
	prog, err = New(job, stats, Options{UnrollIterations: 1}).Program(0)
	if err != nil {
		t.Fatal(err)
	}
	drop := leafGradient(prog)
	short := wireOf(prog).without(drop).encode()
	if _, err := DecodeProgram(short); err == nil || !strings.Contains(err.Error(), "gates on 11 weight gradients, want 12") {
		t.Fatalf("DecodeProgram on a Program missing %s: %v", prog.Op(drop), err)
	}
}

// TestDecodeProgramChecksShape is the regression test for a decode that
// never looked at Shape: a valid DP4×PP4 encoding whose header is rewritten
// to DP1×PP1 must not decode, nor may a Program carrying one field outside
// its shape or enum at any position the wire has.
func TestDecodeProgramChecksShape(t *testing.T) {
	job, stats := ShapeJob(4, 4, 8)
	eng := New(job, stats, Options{UnrollIterations: 1})
	prog, err := eng.ProgramFor(map[schedule.Worker]bool{{Stage: 1, Pipeline: 2}: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	shrunk := bytes.Clone(data)
	dpAt := len(wireMagic) + 2 // DP and PP follow the framing, one byte each
	if shrunk[dpAt] != 4 || shrunk[dpAt+1] != 4 {
		t.Fatalf("header bytes % x are not where the test expects DP and PP", shrunk[:dpAt+2])
	}
	shrunk[dpAt], shrunk[dpAt+1] = 1, 1
	if _, err := DecodeProgram(shrunk); err == nil {
		t.Fatal("DecodeProgram accepted a DP4×PP4 program under a DP1×PP1 header")
	}

	// An instruction with edges, to corrupt: the last one that has any (the
	// optimizers that close the program have none, only the barrier).
	last := len(prog.Instrs) - 1
	for len(prog.Deps(last)) == 0 {
		last--
	}
	outside := schedule.Worker{Stage: prog.Shape.PP, Pipeline: 0}
	// costTable returns a full cost table of unit durations with entry i set to d.
	costTable := func(p *wireProgram, i int, d int64) []int64 {
		table := make([]int64, p.shape.DP*p.shape.PP*schedule.OpTypes)
		for j := range table {
			table[j] = 1
		}
		table[i] = d
		return table
	}
	cases := map[string]func(p *wireProgram){
		"cost table size":     func(p *wireProgram) { p.costs = costTable(p, 0, 1)[1:] },
		"cost table zero":     func(p *wireProgram) { p.costs = costTable(p, 7, 0) },
		"cost table negative": func(p *wireProgram) { p.costs = costTable(p, 0, -3) },
		"op stage":            func(p *wireProgram) { p.instrs[0].op.Stage = p.shape.PP },
		"op micro":            func(p *wireProgram) { p.instrs[0].op.MB = p.shape.MB },
		"op home":             func(p *wireProgram) { p.instrs[0].op.Home = p.shape.DP },
		"op type":             func(p *wireProgram) { p.instrs[0].op.Type = schedule.Optimizer + 1 },
		"op exec":             func(p *wireProgram) { p.instrs[0].op.Exec = p.shape.DP },
		"op iter":             func(p *wireProgram) { p.instrs[0].op.Iter = p.shape.Iter },
		"optimizer mb":        func(p *wireProgram) { p.instrs[len(p.instrs)-1].op.MB = 0 }, // the Program closes on an optimizer
		"optimizer home":      func(p *wireProgram) { p.instrs[len(p.instrs)-1].op.Home++ }, // nor may it run off its home
		"edge kind":           func(p *wireProgram) { p.instrs[last].deps[0].Kind = schedule.DepAllReduce },
		"edge producer":       func(p *wireProgram) { p.instrs[last].deps[0].From = int32(len(p.instrs)) },
		"gate":                func(p *wireProgram) { p.instrs[0].gated = true }, // instruction 0 is a forward
		"stream id":           func(p *wireProgram) { p.streams[0].ids[0] = len(p.instrs) },
		"stream worker":       func(p *wireProgram) { p.streams[0].worker = outside },
		"failed worker":       func(p *wireProgram) { p.failed = map[schedule.Worker]bool{outside: true} },
	}
	for name, corrupt := range cases {
		p := wireOf(prog)
		corrupt(p)
		tampered := p.encode()
		if bytes.Equal(tampered, data) {
			t.Fatalf("%s: corruption did not reach the wire", name)
		}
		if _, err := DecodeProgram(tampered); err == nil {
			t.Errorf("DecodeProgram accepted a program with its %s out of range", name)
		}
	}
}

// TestProgramStoreRoundTrip pins the replicated Program artifacts: an
// engine that compiles a Program replicates its encoded form, and a
// second engine sharing the store (same configuration, fresh caches)
// serves the same failure set by decoding the artifact instead of
// compiling — the cross-process fetch path remote executors rely on.
func TestProgramStoreRoundTrip(t *testing.T) {
	store := planstore.New(3)
	job, stats := ShapeJob(3, 2, 4)
	failed := map[schedule.Worker]bool{{Stage: 0, Pipeline: 1}: true}

	engA := New(job, stats, Options{UnrollIterations: 1, Store: store})
	pa, err := engA.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}
	if m := engA.Metrics(); m.Compiles != 1 {
		t.Fatalf("coordinator compiled %d times, want 1", m.Compiles)
	}

	engB := New(job, stats, Options{UnrollIterations: 1, Store: store})
	pb, err := engB.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}
	m := engB.Metrics()
	if m.Compiles != 0 {
		t.Fatalf("second engine compiled %d times, want 0 (artifact was replicated)", m.Compiles)
	}
	if m.StoreHits != 1 {
		t.Fatalf("StoreHits = %d, want 1", m.StoreHits)
	}
	da, err := EncodeProgram(pa)
	if err != nil {
		t.Fatal(err)
	}
	db, err := EncodeProgram(pb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("store-decoded Program is not bit-identical to the compiled one")
	}
}
