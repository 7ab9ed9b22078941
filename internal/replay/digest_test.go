package replay

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"
	"time"

	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/obs"
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

// replayDigest replays one case with a trace recorder and hashes what it
// produced: the Result with every Event, each recorded segment's label and
// sorted spans, and the recorder's event list — or, when the replay fails,
// the error text.
func replayDigest(c digestCase) uint64 {
	job, stats := engine.ShapeJob(c.dp, c.pp, c.mb)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	tr := failure.PoissonMachines(c.dp*c.pp, time.Hour, 10*time.Minute, 30*time.Minute, c.seed)
	rec := obs.NewTrace()
	res, err := Replay(eng, tr, Options{Horizon: 30 * time.Minute, DetectDelay: 2 * time.Second, RejoinDelay: 5 * time.Second, Recorder: rec})
	h := fnv.New64a()
	if err != nil {
		io.WriteString(h, err.Error())
		return h.Sum64()
	}
	fmt.Fprintf(h, "%s|%v|%d|%v|%v|%v|%d|%d\n", res.Trace, res.Horizon, res.Iterations, res.Samples, res.Average, res.StallSeconds, res.LostSlots, res.MigratedTriples)
	for _, ev := range res.Events {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	for _, seg := range rec.Segments() {
		fmt.Fprintf(h, "segment %s\n", seg.Label)
		for _, s := range seg.Spans() {
			fmt.Fprintf(h, "%+v\n", s)
		}
	}
	for _, ev := range rec.Events() {
		fmt.Fprintf(h, "%+v\n", ev)
	}
	return h.Sum64()
}

// replayDigests pins replayDigest of every digestCase, in order. Four of
// the 2×3×4 traces empty a stage and pin the rejection's text.
var replayDigests = []uint64{
	0x144fd7d93289e75b, // {dp:3 pp:4 mb:6 seed:1}
	0x1837eebd4145b493, // {dp:3 pp:4 mb:6 seed:2}
	0x4f2e7ff81a107b48, // {dp:3 pp:4 mb:6 seed:3}
	0xf4da22bf109f2f7a, // {dp:3 pp:4 mb:6 seed:4}
	0x2f1a0128399e1e52, // {dp:3 pp:4 mb:6 seed:5}
	0x48fab0ef71d5ca36, // {dp:3 pp:4 mb:6 seed:6}
	0x935d133cdb1dda86, // {dp:3 pp:4 mb:6 seed:7}
	0xca67e0e636e33900, // {dp:3 pp:4 mb:6 seed:8}
	0xa97bb5718847b18a, // {dp:4 pp:2 mb:8 seed:1}
	0x220aae915ba48899, // {dp:4 pp:2 mb:8 seed:2}
	0xe65f3ee9da251413, // {dp:4 pp:2 mb:8 seed:3}
	0x2ea3ae88f7aa9abb, // {dp:4 pp:2 mb:8 seed:4}
	0x4b5957148547ba07, // {dp:4 pp:2 mb:8 seed:5}
	0x13b8d3157e26b5b6, // {dp:4 pp:2 mb:8 seed:6}
	0xcacf8f46aafed636, // {dp:4 pp:2 mb:8 seed:7}
	0x847344619bcf8fae, // {dp:4 pp:2 mb:8 seed:8}
	0xb55a2a2607828e7e, // {dp:2 pp:3 mb:4 seed:1}
	0x11a3e82757df56f7, // {dp:2 pp:3 mb:4 seed:2}
	0xa52a2745c58c67ed, // {dp:2 pp:3 mb:4 seed:3}
	0xe312a774c217a390, // {dp:2 pp:3 mb:4 seed:4}
	0xb55a2a2607828e7e, // {dp:2 pp:3 mb:4 seed:5}
	0x7981a0ae4f8c350e, // {dp:2 pp:3 mb:4 seed:6}
	0xa52a2745c58c67ed, // {dp:2 pp:3 mb:4 seed:7}
	0x270c40caba960df3, // {dp:2 pp:3 mb:4 seed:8}
}

// TestReplayDigestsUnchanged is the bit-identity gate of the trace replayer:
// every replay of the pinned Poisson traces — its result, its events and
// every span and event it recorded — must hash to the pinned digest. A
// change that alters any of them fails here and prints the new table;
// re-pin only when a replay is meant to change.
func TestReplayDigestsUnchanged(t *testing.T) {
	if raceEnabled {
		t.Skip("a single-goroutine sweep: the race detector finds nothing here and multiplies its time tenfold")
	}
	cases := digestCases()
	got := make([]uint64, len(cases))
	for i, c := range cases {
		got[i] = replayDigest(c)
	}
	mismatch := len(got) != len(replayDigests)
	for i := 0; !mismatch && i < len(got); i++ {
		if got[i] != replayDigests[i] {
			t.Errorf("%+v: digest %#016x, pinned %#016x", cases[i], got[i], replayDigests[i])
			mismatch = true
		}
	}
	if mismatch {
		var b strings.Builder
		for i, d := range got {
			fmt.Fprintf(&b, "\t%#016x, // %+v\n", d, cases[i])
		}
		t.Fatalf("%d replays hash differently from the pinned table; at this tree it reads:\n%s", len(cases), b.String())
	}
}
