package replay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// digestCase is one pinned replay: a per-machine Poisson trace of the given
// seed on a DP×PP×MB ShapeJob.
type digestCase struct {
	dp, pp, mb int
	seed       int64
}

// digestCases lists the pinned replays in table order: seeds 1–8 on each of
// three shapes.
func digestCases() []digestCase {
	var out []digestCase
	for _, sh := range [][3]int{{3, 4, 6}, {4, 2, 8}, {2, 3, 4}} {
		for seed := int64(1); seed <= 8; seed++ {
			out = append(out, digestCase{sh[0], sh[1], sh[2], seed})
		}
	}
	return out
}

// digestEngine builds a fresh engine for a digestCase's shape.
func digestEngine(c digestCase) *engine.Engine {
	job, stats := engine.ShapeJob(c.dp, c.pp, c.mb)
	return engine.New(job, stats, engine.Options{UnrollIterations: 1})
}

// replayDigest replays one case on eng with a trace recorder and hashes
// what it produced into two digests. The result digest covers the Result
// with every Event; the span digest covers each recorded segment's label
// and sorted spans, and the recorder's event list. When the replay fails,
// both hash the error text. Spans name instructions by ID, so only the span
// digest moves when a splice numbers its Program differently.
func replayDigest(eng *engine.Engine, c digestCase) (result, spans uint64) {
	tr := failure.PoissonMachines(c.dp*c.pp, time.Hour, 10*time.Minute, 30*time.Minute, c.seed)
	rec := obs.NewTrace()
	res, err := Replay(eng, tr, Options{Horizon: 30 * time.Minute, DetectDelay: 2 * time.Second, RejoinDelay: 5 * time.Second, Recorder: rec})
	hr, hs := fnv.New64a(), fnv.New64a()
	if err != nil {
		io.WriteString(hr, err.Error())
		io.WriteString(hs, err.Error())
		return hr.Sum64(), hs.Sum64()
	}
	fmt.Fprintf(hr, "%s|%v|%d|%v|%v|%v|%d|%d\n", res.Trace, res.Horizon, res.Iterations, res.Samples, res.Average, res.StallSeconds, res.LostSlots, res.MigratedTriples)
	for _, ev := range res.Events {
		fmt.Fprintf(hr, "%+v\n", ev)
	}
	for _, seg := range rec.Segments() {
		fmt.Fprintf(hs, "segment %s\n", seg.Label)
		for _, s := range seg.Spans() {
			fmt.Fprintf(hs, "%+v\n", s)
		}
	}
	for _, ev := range rec.Events() {
		fmt.Fprintf(hs, "%+v\n", ev)
	}
	return hr.Sum64(), hs.Sum64()
}

// resultDigests pins the result digest of every digestCase, in order. Four
// of the 2×3×4 traces empty a stage and pin the rejection's text.
var resultDigests = []uint64{
	0x316c473efe121d93, // {dp:3 pp:4 mb:6 seed:1}
	0x2225091cbc963cb9, // {dp:3 pp:4 mb:6 seed:2}
	0xad6aec3bc53b2f14, // {dp:3 pp:4 mb:6 seed:3}
	0x70572ffa48c94c12, // {dp:3 pp:4 mb:6 seed:4}
	0x2ee4d7472c85cca3, // {dp:3 pp:4 mb:6 seed:5}
	0x4e062090e830812a, // {dp:3 pp:4 mb:6 seed:6}
	0x5847c255d534ac6e, // {dp:3 pp:4 mb:6 seed:7}
	0xd7c74a3ca2e353c2, // {dp:3 pp:4 mb:6 seed:8}
	0x3a970df96b41108a, // {dp:4 pp:2 mb:8 seed:1}
	0xafb49577fb7a24e4, // {dp:4 pp:2 mb:8 seed:2}
	0x29d09a60c4793fdf, // {dp:4 pp:2 mb:8 seed:3}
	0xc648cec716e85751, // {dp:4 pp:2 mb:8 seed:4}
	0xf3ac823dd6ad7640, // {dp:4 pp:2 mb:8 seed:5}
	0xbbddbf8fa6ae532a, // {dp:4 pp:2 mb:8 seed:6}
	0xd2db81489b560b09, // {dp:4 pp:2 mb:8 seed:7}
	0x41527a8d6c25f0f7, // {dp:4 pp:2 mb:8 seed:8}
	0xb55a2a2607828e7e, // {dp:2 pp:3 mb:4 seed:1}
	0xae4097e14302dd5f, // {dp:2 pp:3 mb:4 seed:2}
	0xa52a2745c58c67ed, // {dp:2 pp:3 mb:4 seed:3}
	0x46926b1524383b6b, // {dp:2 pp:3 mb:4 seed:4}
	0xb55a2a2607828e7e, // {dp:2 pp:3 mb:4 seed:5}
	0x73cc18b343247fbe, // {dp:2 pp:3 mb:4 seed:6}
	0xa52a2745c58c67ed, // {dp:2 pp:3 mb:4 seed:7}
	0xebcef5672bee16fd, // {dp:2 pp:3 mb:4 seed:8}
}

// spanDigests pins the span digest of every digestCase, in order.
var spanDigests = []uint64{
	0x495278beef21b9af, // {dp:3 pp:4 mb:6 seed:1}
	0xb9db36eab15137e3, // {dp:3 pp:4 mb:6 seed:2}
	0x87cb56bc31f2b95d, // {dp:3 pp:4 mb:6 seed:3}
	0xc4e842e183861f51, // {dp:3 pp:4 mb:6 seed:4}
	0x766b9a4adb32571c, // {dp:3 pp:4 mb:6 seed:5}
	0xb135d3da672c8e59, // {dp:3 pp:4 mb:6 seed:6}
	0x67ce12b7e4763b03, // {dp:3 pp:4 mb:6 seed:7}
	0x40e2d802669c7be3, // {dp:3 pp:4 mb:6 seed:8}
	0x57392ad7162a0629, // {dp:4 pp:2 mb:8 seed:1}
	0xf2c28b69d265b238, // {dp:4 pp:2 mb:8 seed:2}
	0x7f4d18a7b3f7caab, // {dp:4 pp:2 mb:8 seed:3}
	0xf9cb3d664319ce71, // {dp:4 pp:2 mb:8 seed:4}
	0x62a7f6e5c550692c, // {dp:4 pp:2 mb:8 seed:5}
	0x40aa40d052073813, // {dp:4 pp:2 mb:8 seed:6}
	0x29de0faa9e4ed598, // {dp:4 pp:2 mb:8 seed:7}
	0xc82474d526ab28a4, // {dp:4 pp:2 mb:8 seed:8}
	0xb55a2a2607828e7e, // {dp:2 pp:3 mb:4 seed:1}
	0x188f506f75c29b7b, // {dp:2 pp:3 mb:4 seed:2}
	0xa52a2745c58c67ed, // {dp:2 pp:3 mb:4 seed:3}
	0x272dca4d3da20da4, // {dp:2 pp:3 mb:4 seed:4}
	0xb55a2a2607828e7e, // {dp:2 pp:3 mb:4 seed:5}
	0x5e714e6f82ed1303, // {dp:2 pp:3 mb:4 seed:6}
	0xa52a2745c58c67ed, // {dp:2 pp:3 mb:4 seed:7}
	0x20254939d3cf5885, // {dp:2 pp:3 mb:4 seed:8}
}

// TestReplayDigestsUnchanged is the bit-identity gate of the trace replayer:
// every replay of the pinned Poisson traces, each on a fresh engine — its
// result and events, and every span and event it recorded — must hash to
// the pinned digests. A change that alters any of them fails here and
// prints the new tables; re-pin only the table a change is meant to move.
func TestReplayDigestsUnchanged(t *testing.T) {
	cases := digestCases()
	result, spans := make([]uint64, len(cases)), make([]uint64, len(cases))
	for i, c := range cases {
		result[i], spans[i] = replayDigest(digestEngine(c), c)
	}
	checkDigests(t, cases, result, spans)
}

// TestReplaysKeepPlainTimelines fetches the Program of every window of
// every digestCase's trace before it is replayed: each Program's memoized
// plain timeline must equal a fresh sim.ExecuteProgram, and replaying the
// trace — which starts every window, and every splice chain, from those
// timelines — must leave each one byte-identical, by a hash of its slab
// taken before and after.
func TestReplaysKeepPlainTimelines(t *testing.T) {
	for _, c := range digestCases() {
		eng := digestEngine(c)
		tr := failure.PoissonMachines(c.dp*c.pp, time.Hour, 10*time.Minute, 30*time.Minute, c.seed)
		windows, err := tr.Windows(30 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		states, _ := memberships(windows, c.pp)
		before := make(map[*schedule.Program]uint64)
		for i, st := range states {
			prog, err := eng.ProgramFor(st.failed)
			if err != nil {
				continue // a stage is empty: the replay rejects the trace there
			}
			memo, err := sim.Plain(prog)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(memo.Start, want.Start) || !slices.Equal(memo.End, want.End) || memo.Makespan != want.Makespan || memo.Completed != want.Completed {
				t.Fatalf("%+v window %d: the plain timeline is not ExecuteProgram's", c, i)
			}
			before[prog] = hashTimeline(memo)
		}
		replayDigest(eng, c)
		for prog, h := range before {
			memo, err := sim.Plain(prog)
			if err != nil {
				t.Fatal(err)
			}
			if hashTimeline(memo) != h {
				t.Fatalf("%+v: replaying the trace changed the plain timeline of a %d-instruction Program", c, len(prog.Instrs))
			}
		}
	}
}

// TestDeferredNumberingMatchesSplice replays every digestCase and checks
// each splice Replay makes, which Replay numbers only when another event
// cuts the spliced iteration, against Splice on the same input. A splice
// that was numbered must equal Splice's artifact: the Program's encoded
// bytes, the timeline, Done, Floors, Failed and every counter. One that was
// not must agree on the timeline's makespan and every counter, and must
// have given its scratch back.
func TestDeferredNumberingMatchesSplice(t *testing.T) {
	type splice struct {
		in  SpliceInput
		got *Spliced
	}
	var seen []splice
	testHookAdvance = func(in SpliceInput, spl *Spliced) {
		in.Starts, in.Ends, in.Release = slices.Clone(in.Starts), slices.Clone(in.Ends), maps.Clone(in.Release)
		seen = append(seen, splice{in, spl})
	}
	defer func() { testHookAdvance = nil }()
	for _, c := range digestCases() {
		replayDigest(digestEngine(c), c)
	}
	encode := func(p *schedule.Program) []byte {
		b, err := engine.EncodeProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	numbered := 0
	for k, s := range seen {
		want, err := Splice(s.in)
		if err != nil {
			t.Fatalf("splice %d: Splice rejects what Replay spliced: %v", k, err)
		}
		// Everything but the Program and the timeline compares as a
		// value; a splice Replay never numbered has no Done.
		got, ref := *s.got, *want
		got.Program, got.Exec, ref.Program, ref.Exec = nil, nil, nil, nil
		if s.got.sc != nil {
			t.Fatalf("splice %d: Replay kept its scratch", k)
		}
		if s.got.Done == nil {
			ref.Done = nil
			if s.got.Exec.Makespan != want.Exec.Makespan || s.got.Exec.Completed != want.Exec.Completed || !reflect.DeepEqual(got, ref) {
				t.Fatalf("splice %d, never numbered: makespan %d, counters %+v; Splice: makespan %d, counters %+v",
					k, s.got.Exec.Makespan, got, want.Exec.Makespan, ref)
			}
			continue
		}
		numbered++
		gx, wx := s.got.Exec, want.Exec
		switch {
		case !bytes.Equal(encode(s.got.Program), encode(want.Program)):
			t.Fatalf("splice %d: the numbered Program encodes differently from Splice's", k)
		case !slices.Equal(gx.Start, wx.Start) || !slices.Equal(gx.End, wx.End) || gx.Makespan != wx.Makespan || gx.Completed != wx.Completed:
			t.Fatalf("splice %d: the numbered timeline differs from Splice's", k)
		case !reflect.DeepEqual(got, ref):
			t.Fatalf("splice %d: numbered %+v, Splice %+v", k, got, ref)
		}
	}
	t.Logf("%d splices, %d numbered", len(seen), numbered)
	if numbered != 13 {
		t.Fatalf("%d of %d splices were cut again, want the digest traces' 13", numbered, len(seen))
	}
}

// hashTimeline hashes an execution's spans, makespan and completed count.
func hashTimeline(x *sim.Execution) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range append(append([]int64{x.Makespan, int64(x.Completed)}, x.Start...), x.End...) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestConcurrentReplaysKeepTheirDigests replays every digestCase at once,
// the cases of one shape sharing one engine, so replays and their
// prefetchers race on first fetches of the same failed sets. Each must
// still hash to the pinned digests, and once every Replay has returned —
// the four failing traces included — no prefetch goroutine may remain.
func TestConcurrentReplaysKeepTheirDigests(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cases := digestCases()
	engines := make(map[[3]int]*engine.Engine)
	for _, c := range cases {
		if sh := [3]int{c.dp, c.pp, c.mb}; engines[sh] == nil {
			engines[sh] = digestEngine(c)
		}
	}
	result, spans := make([]uint64, len(cases)), make([]uint64, len(cases))
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i, c := range cases {
		wg.Add(1)
		go func() {
			result[i], spans[i] = replayDigest(engines[[3]int{c.dp, c.pp, c.mb}], c)
			wg.Done()
			<-release // parked, so the count below sees only what Replay left
		}()
	}
	wg.Wait()
	defer close(release)
	checkDigests(t, cases, result, spans)
	// A prefetcher Replay waited for may still be returning from its
	// function; anything alive past the bounded wait outlived its replay.
	want := baseline + len(cases)
	for deadline := time.Now().Add(100 * time.Millisecond); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines beyond the %d parked replayers remain after every replay returned", runtime.NumGoroutine()-want, len(cases))
		}
	}
}

// checkDigests compares a run's result and span digests with the pinned
// tables and, on a mismatch, prints the table the run reads.
func checkDigests(t *testing.T, cases []digestCase, result, spans []uint64) {
	t.Helper()
	for _, tab := range []struct {
		name        string
		got, pinned []uint64
	}{{"resultDigests", result, resultDigests}, {"spanDigests", spans, spanDigests}} {
		mismatch := len(tab.got) != len(tab.pinned)
		for i := 0; !mismatch && i < len(tab.got); i++ {
			if tab.got[i] != tab.pinned[i] {
				t.Errorf("%s %+v: digest %#016x, pinned %#016x", tab.name, cases[i], tab.got[i], tab.pinned[i])
				mismatch = true
			}
		}
		if mismatch {
			var b strings.Builder
			for i, d := range tab.got {
				fmt.Fprintf(&b, "\t%#016x, // %+v\n", d, cases[i])
			}
			t.Errorf("%d replays hash differently from %s; at this tree it reads:\n%s", len(cases), tab.name, b.String())
		}
	}
}
