package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"slices"
	"strings"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
	"recycle/internal/solver"
)

// codecDigestShapes lists every shape up to DP3×PP3×MB4 over one and two
// iterations, in the order programDigests are pinned.
func codecDigestShapes() []schedule.Shape {
	var out []schedule.Shape
	for dp := 1; dp <= 3; dp++ {
		for pp := 1; pp <= 3; pp++ {
			for mb := 1; mb <= 4; mb++ {
				for it := 1; it <= 2; it++ {
					out = append(out, schedule.Shape{DP: dp, PP: pp, MB: mb, Iter: it})
				}
			}
		}
	}
	return out
}

// codecDigestInputs are the solver inputs every (shape, failure set) is
// compiled from: decoupled on unit slots, and coupled (so round-robin, as
// the Planner solves it without Decoupled BackProp) on skewed durations
// with comm latency (stamped spans differ per op type, and cross-stage edges
// pay latency).
func codecDigestInputs(sh schedule.Shape) []solver.Input {
	skewed := schedule.Durations{F: 2, BInput: 3, BWeight: 1, Opt: 2, Comm: 1}
	return []solver.Input{
		{Shape: sh, Durations: schedule.UnitSlots, Decoupled: true, Staggered: true},
		{Shape: sh, Durations: skewed, Staggered: true},
	}
}

// hashEncoded folds one Program's encoding into h, length-prefixed, after
// requiring a decode→encode round trip to reproduce it byte for byte.
func hashEncoded(t *testing.T, h hash.Hash64, label string, p *schedule.Program) {
	t.Helper()
	data, err := engine.EncodeProgram(p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	back, err := engine.DecodeProgram(data)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if re, err := engine.EncodeProgram(back); err != nil || !bytes.Equal(re, data) {
		t.Fatalf("%s: decode→encode does not reproduce the bytes (%v)", label, err)
	}
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
	h.Write(n[:])
	h.Write(data)
}

// shapeDigests are one shape's rows: the encodings of its compiled
// Programs, the encodings of its live splices, and the splices' identity
// digests (see hashSpliceIdentity).
type shapeDigests struct {
	compiled, spliced, identity uint64
}

// codecFailureSets lists the failure sets every shape is compiled under:
// none, every single and every double failure.
func codecFailureSets(sh schedule.Shape) []map[schedule.Worker]bool {
	n := sh.DP * sh.PP
	sets := []map[schedule.Worker]bool{nil}
	for a := 0; a < n; a++ {
		sets = append(sets, map[schedule.Worker]bool{sh.WorkerAt(a): true})
		for b := a + 1; b < n; b++ {
			sets = append(sets, map[schedule.Worker]bool{sh.WorkerAt(a): true, sh.WorkerAt(b): true})
		}
	}
	return sets
}

// programShapeDigest compiles every failure set of the shape (none, every
// single and every double failure) under each input, and live-splices each
// single-iteration healthy Program at every cut for every single kill; an
// error or inadmissible cut folds in as a one-byte marker.
func programShapeDigest(t *testing.T, sh schedule.Shape) (d shapeDigests, programs int) {
	hc, hs, hi := fnv.New64a(), fnv.New64a(), fnv.New64a()
	for _, in := range codecDigestInputs(sh) {
		for _, failed := range codecFailureSets(sh) {
			in.Failed = failed
			label := fmt.Sprintf("%+v %+v failed %v", sh, in.Durations, failed)
			s, err := solver.Solve(in)
			if err != nil {
				hc.Write([]byte{'x'})
				continue
			}
			prog, err := schedule.Compile(s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			hashEncoded(t, hc, label, prog)
			full := checkPlainTimeline(t, label, prog)
			programs++
			if failed != nil || sh.Iter > 1 {
				continue
			}
			for _, victim := range prog.Workers() {
				for cut := int64(1); cut < full.Makespan; cut++ {
					lv, err := replay.LiveSplice(replay.LiveEvent{Prog: prog, Cut: cut, Fail: []schedule.Worker{victim}})
					if err != nil {
						hs.Write([]byte{'x'})
						hi.Write([]byte{'x'})
						continue
					}
					hashEncoded(t, hs, fmt.Sprintf("%s, %s killed at %d", label, victim, cut), lv.Program)
					checkPlainTimeline(t, fmt.Sprintf("%s, %s killed at %d", label, victim, cut), lv.Program)
					hashSpliceIdentity(hi, lv)
					programs++
				}
			}
		}
	}
	return shapeDigests{hc.Sum64(), hs.Sum64(), hi.Sum64()}, programs
}

// checkPlainTimeline requires p's memoized plain timeline (sim.Plain) to
// equal a fresh sim.ExecuteProgram of p — spans, makespan and completed
// count — and returns it.
func checkPlainTimeline(t *testing.T, label string, p *schedule.Program) *sim.Execution {
	t.Helper()
	memo, err := sim.Plain(p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := sim.ExecuteProgram(p, sim.ProgramOptions{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !slices.Equal(memo.Start, want.Start) || !slices.Equal(memo.End, want.End) || memo.Makespan != want.Makespan || memo.Completed != want.Completed {
		t.Fatalf("%s: the plain timeline (makespan %d, %d completed) is not ExecuteProgram's (makespan %d, %d completed)", label, memo.Makespan, memo.Completed, want.Makespan, want.Completed)
	}
	return memo
}

// hashSpliceIdentity folds one splice into h with every instruction named
// by its op, not its ID, so the digest holds however a splice numbers its
// Program: each worker's stream as ops with their stamped Dur, gate bit,
// producers and Done end (-1 outside the prefix), then the Floors, the
// iteration's end, the lost input IDs and the counters.
func hashSpliceIdentity(h io.Writer, lv *replay.Spliced) {
	p := lv.Program
	fmt.Fprintf(h, "%+v %+v %v %v\n", p.Shape, p.Durations, p.Failed, p.CostTable())
	for _, w := range p.Workers() {
		fmt.Fprintf(h, "worker %s\n", w)
		for _, id := range p.Stream(w) {
			done, ok := lv.Done[int(id)]
			if !ok {
				done = -1
			}
			fmt.Fprintf(h, "%+v dur=%d gated=%v done=%d <-", p.Op(int(id)), p.Instrs[id].Dur, p.Gated(int(id)), done)
			for _, d := range p.Deps(int(id)) {
				fmt.Fprintf(h, " %v:%+v", d.Kind, p.Op(int(d.From)))
			}
			fmt.Fprintln(h)
		}
	}
	fmt.Fprintf(h, "floors %v end %d lost %v counters %d %d %d %d %d %d %d\n", lv.Floors, lv.Exec.Makespan, lv.LostIDs,
		lv.PrefixOps, lv.SuffixOps, lv.LostOps, lv.LostSlots, lv.ReroutedOps, lv.MigratedTriples, len(p.Instrs))
}

// rejoinDigest live-splices one re-join — W1_0 of a DP3×PP2×MB4 fleet that
// lost it — at every cut of the degraded Program, into an encoding and an
// identity digest.
func rejoinDigest(t *testing.T) (spliced, identity uint64, programs int) {
	hs, hi := fnv.New64a(), fnv.New64a()
	sh := schedule.Shape{DP: 3, PP: 2, MB: 4, Iter: 1}
	w := schedule.Worker{Stage: 0, Pipeline: 1}
	s, err := solver.Solve(solver.Input{Shape: sh, Durations: schedule.UnitSlots, Decoupled: true, Staggered: true, Failed: map[schedule.Worker]bool{w: true}})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := schedule.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(1); cut < full.Makespan; cut++ {
		lv, err := replay.LiveSplice(replay.LiveEvent{Prog: prog, Cut: cut, Rejoin: []schedule.Worker{w}})
		if err != nil {
			hs.Write([]byte{'x'})
			hi.Write([]byte{'x'})
			continue
		}
		hashEncoded(t, hs, fmt.Sprintf("%s re-joins at %d", w, cut), lv.Program)
		hashSpliceIdentity(hi, lv)
		programs++
	}
	return hs.Sum64(), hi.Sum64(), programs
}

// compiledDigests pins the EncodeProgram bytes of every compiled Program
// the sweep builds, as codec v4 lays them out: one FNV-64a digest per shape
// of codecDigestShapes, in order.
var compiledDigests = []uint64{
	0xcbc8a11a4b3f81d7, // {DP:1 PP:1 MB:1 Iter:1}
	0xb399612eb2964bfb, // {DP:1 PP:1 MB:1 Iter:2}
	0xcaf40fe15d09cde5, // {DP:1 PP:1 MB:2 Iter:1}
	0x90b756c1dc0cd3b5, // {DP:1 PP:1 MB:2 Iter:2}
	0x8754305f7a8ef88f, // {DP:1 PP:1 MB:3 Iter:1}
	0x746a5f3ece83006f, // {DP:1 PP:1 MB:3 Iter:2}
	0x8327c0684d0114ed, // {DP:1 PP:1 MB:4 Iter:1}
	0x8d0e3ce161b4380d, // {DP:1 PP:1 MB:4 Iter:2}
	0x3d12b383742ead1d, // {DP:1 PP:2 MB:1 Iter:1}
	0xbbb8ced3cfe76f95, // {DP:1 PP:2 MB:1 Iter:2}
	0xf59dfc4c4598148d, // {DP:1 PP:2 MB:2 Iter:1}
	0xc049898f6f636465, // {DP:1 PP:2 MB:2 Iter:2}
	0xb13e63e5c0125905, // {DP:1 PP:2 MB:3 Iter:1}
	0x56692513900c215d, // {DP:1 PP:2 MB:3 Iter:2}
	0xef919592678ca271, // {DP:1 PP:2 MB:4 Iter:1}
	0xf762a38881b89719, // {DP:1 PP:2 MB:4 Iter:2}
	0xe97a55794832e401, // {DP:1 PP:3 MB:1 Iter:1}
	0x8c6bce7d67dfffc3, // {DP:1 PP:3 MB:1 Iter:2}
	0x818a00b8c83b96ab, // {DP:1 PP:3 MB:2 Iter:1}
	0x7e0be6b47ff4ffab, // {DP:1 PP:3 MB:2 Iter:2}
	0x0bfa4bb7dcd801df, // {DP:1 PP:3 MB:3 Iter:1}
	0xea4cdaff84dafa27, // {DP:1 PP:3 MB:3 Iter:2}
	0x07a456cd6c97648b, // {DP:1 PP:3 MB:4 Iter:1}
	0xd96c31a0a9b01363, // {DP:1 PP:3 MB:4 Iter:2}
	0xb8fbe45baee18137, // {DP:2 PP:1 MB:1 Iter:1}
	0x8b66adffe075f573, // {DP:2 PP:1 MB:1 Iter:2}
	0x7266340482ceffcb, // {DP:2 PP:1 MB:2 Iter:1}
	0x3dd3d2f175887e15, // {DP:2 PP:1 MB:2 Iter:2}
	0xa70330388ac4c84b, // {DP:2 PP:1 MB:3 Iter:1}
	0xd2c8acc8a37305db, // {DP:2 PP:1 MB:3 Iter:2}
	0x0196783fa2c89c4f, // {DP:2 PP:1 MB:4 Iter:1}
	0xdca8641731860285, // {DP:2 PP:1 MB:4 Iter:2}
	0x2fff997fb2e2aa19, // {DP:2 PP:2 MB:1 Iter:1}
	0x02e3eb08f49ee759, // {DP:2 PP:2 MB:1 Iter:2}
	0x786f772765edbd01, // {DP:2 PP:2 MB:2 Iter:1}
	0x9cd750532067fa33, // {DP:2 PP:2 MB:2 Iter:2}
	0x66400acb029426c7, // {DP:2 PP:2 MB:3 Iter:1}
	0xd00745903eb3178d, // {DP:2 PP:2 MB:3 Iter:2}
	0x21e97342bae3ee2b, // {DP:2 PP:2 MB:4 Iter:1}
	0x17d259ef07f4ee7d, // {DP:2 PP:2 MB:4 Iter:2}
	0xfc98f651a80efb29, // {DP:2 PP:3 MB:1 Iter:1}
	0xb5d9c569a23c5903, // {DP:2 PP:3 MB:1 Iter:2}
	0x0f5a69fde56e99ab, // {DP:2 PP:3 MB:2 Iter:1}
	0x0da21b45e9fb0aaf, // {DP:2 PP:3 MB:2 Iter:2}
	0x7ad58741b50ebc1d, // {DP:2 PP:3 MB:3 Iter:1}
	0x859ef5d34a802159, // {DP:2 PP:3 MB:3 Iter:2}
	0x3c64e11adfde5fa3, // {DP:2 PP:3 MB:4 Iter:1}
	0x95c126dc7fcdb883, // {DP:2 PP:3 MB:4 Iter:2}
	0x0e44a89e6569e038, // {DP:3 PP:1 MB:1 Iter:1}
	0x3e54aa534e65c5ea, // {DP:3 PP:1 MB:1 Iter:2}
	0x82877e13428dfa53, // {DP:3 PP:1 MB:2 Iter:1}
	0x544cc3e517598df9, // {DP:3 PP:1 MB:2 Iter:2}
	0x5fe1bcb63b3ad923, // {DP:3 PP:1 MB:3 Iter:1}
	0xe5ec380fe042e7c7, // {DP:3 PP:1 MB:3 Iter:2}
	0x50df33d93d916137, // {DP:3 PP:1 MB:4 Iter:1}
	0x5eac69efa4d6781d, // {DP:3 PP:1 MB:4 Iter:2}
	0xb128f7c19bdcd428, // {DP:3 PP:2 MB:1 Iter:1}
	0x5fbc49f5ae5bde7b, // {DP:3 PP:2 MB:1 Iter:2}
	0x9c5b99f12c9c3917, // {DP:3 PP:2 MB:2 Iter:1}
	0xe4c9d9f0380279c0, // {DP:3 PP:2 MB:2 Iter:2}
	0x9d4e3f36713bdb56, // {DP:3 PP:2 MB:3 Iter:1}
	0xd327090f91679c0d, // {DP:3 PP:2 MB:3 Iter:2}
	0x22db9dfdf480f7c2, // {DP:3 PP:2 MB:4 Iter:1}
	0x59d678de8680d02d, // {DP:3 PP:2 MB:4 Iter:2}
	0xbf421aea66291009, // {DP:3 PP:3 MB:1 Iter:1}
	0x1b1619bccda20d19, // {DP:3 PP:3 MB:1 Iter:2}
	0xbb4124c8a12b9176, // {DP:3 PP:3 MB:2 Iter:1}
	0x6c2a8e1ed699552c, // {DP:3 PP:3 MB:2 Iter:2}
	0xdeffd46bb74277ff, // {DP:3 PP:3 MB:3 Iter:1}
	0xc1dbe3a08643f9f7, // {DP:3 PP:3 MB:3 Iter:2}
	0x71a29865e9f7a164, // {DP:3 PP:3 MB:4 Iter:1}
	0xeac4de76989b63b2, // {DP:3 PP:3 MB:4 Iter:2}
}

// splicedDigests pins the EncodeProgram bytes of every live splice: one
// digest per single-iteration shape, in order, then the re-join sweep's.
var splicedDigests = []uint64{
	0xf88c3015866ac4ed, // {DP:1 PP:1 MB:1 Iter:1}
	0xc9f8510cb2c795cf, // {DP:1 PP:1 MB:2 Iter:1}
	0x669f9ee2cd17ad15, // {DP:1 PP:1 MB:3 Iter:1}
	0x63e2f9fab39293d7, // {DP:1 PP:1 MB:4 Iter:1}
	0x4a435c883a3ee36d, // {DP:1 PP:2 MB:1 Iter:1}
	0x14b1d92b2cf0af95, // {DP:1 PP:2 MB:2 Iter:1}
	0x4c00ca183669920d, // {DP:1 PP:2 MB:3 Iter:1}
	0x052c9e7cec411035, // {DP:1 PP:2 MB:4 Iter:1}
	0x1152ed63738362a5, // {DP:1 PP:3 MB:1 Iter:1}
	0x794b72ace702bcef, // {DP:1 PP:3 MB:2 Iter:1}
	0xf852d98997c33715, // {DP:1 PP:3 MB:3 Iter:1}
	0x7022eebe6fb56db7, // {DP:1 PP:3 MB:4 Iter:1}
	0x286122f92136bc83, // {DP:2 PP:1 MB:1 Iter:1}
	0x67b49fd7b522106d, // {DP:2 PP:1 MB:2 Iter:1}
	0xd8fdd5a8a976de8d, // {DP:2 PP:1 MB:3 Iter:1}
	0xd4ccae135e2932fd, // {DP:2 PP:1 MB:4 Iter:1}
	0xa7dbae7a85fafcb4, // {DP:2 PP:2 MB:1 Iter:1}
	0xc701cb0117e23d96, // {DP:2 PP:2 MB:2 Iter:1}
	0x552683d57aa6da3a, // {DP:2 PP:2 MB:3 Iter:1}
	0x8574884082824e64, // {DP:2 PP:2 MB:4 Iter:1}
	0xe62157c997f49854, // {DP:2 PP:3 MB:1 Iter:1}
	0x3387cf94f36a0d98, // {DP:2 PP:3 MB:2 Iter:1}
	0x49f012e0964bc4c2, // {DP:2 PP:3 MB:3 Iter:1}
	0xb2356447e7fa7ac2, // {DP:2 PP:3 MB:4 Iter:1}
	0x635d672157f7b619, // {DP:3 PP:1 MB:1 Iter:1}
	0x2f1a2da64e952c3f, // {DP:3 PP:1 MB:2 Iter:1}
	0x42569a449949c99f, // {DP:3 PP:1 MB:3 Iter:1}
	0xfe62eb574ba5a183, // {DP:3 PP:1 MB:4 Iter:1}
	0x76ddd9d07f8e679c, // {DP:3 PP:2 MB:1 Iter:1}
	0x7c2e02d958c3542e, // {DP:3 PP:2 MB:2 Iter:1}
	0x00cdaa6d157545c8, // {DP:3 PP:2 MB:3 Iter:1}
	0xf6ab66ae55b67f1c, // {DP:3 PP:2 MB:4 Iter:1}
	0xdc5db8c8264a8b3a, // {DP:3 PP:3 MB:1 Iter:1}
	0x03e9e1a99d9d5169, // {DP:3 PP:3 MB:2 Iter:1}
	0x1c8cc7bfb8611128, // {DP:3 PP:3 MB:3 Iter:1}
	0x0f29c66bcc459a8f, // {DP:3 PP:3 MB:4 Iter:1}
	0x5613f6b5fe796c20, // re-join
}

// identityDigests pins hashSpliceIdentity of the same splices, row for row.
var identityDigests = []uint64{
	0xf88c3015866ac4ed, // {DP:1 PP:1 MB:1 Iter:1}
	0xc9f8510cb2c795cf, // {DP:1 PP:1 MB:2 Iter:1}
	0x669f9ee2cd17ad15, // {DP:1 PP:1 MB:3 Iter:1}
	0x63e2f9fab39293d7, // {DP:1 PP:1 MB:4 Iter:1}
	0x4a435c883a3ee36d, // {DP:1 PP:2 MB:1 Iter:1}
	0x14b1d92b2cf0af95, // {DP:1 PP:2 MB:2 Iter:1}
	0x4c00ca183669920d, // {DP:1 PP:2 MB:3 Iter:1}
	0x052c9e7cec411035, // {DP:1 PP:2 MB:4 Iter:1}
	0x1152ed63738362a5, // {DP:1 PP:3 MB:1 Iter:1}
	0x794b72ace702bcef, // {DP:1 PP:3 MB:2 Iter:1}
	0xf852d98997c33715, // {DP:1 PP:3 MB:3 Iter:1}
	0x7022eebe6fb56db7, // {DP:1 PP:3 MB:4 Iter:1}
	0xc1cb96d4a694b3c5, // {DP:2 PP:1 MB:1 Iter:1}
	0x09da1ce36a240d39, // {DP:2 PP:1 MB:2 Iter:1}
	0xe1d6846b8b3409ad, // {DP:2 PP:1 MB:3 Iter:1}
	0x8b9fa3ae82ede96f, // {DP:2 PP:1 MB:4 Iter:1}
	0x2c7b0b237ac83da7, // {DP:2 PP:2 MB:1 Iter:1}
	0x6845113af3d5d139, // {DP:2 PP:2 MB:2 Iter:1}
	0x558ccd2672333a1f, // {DP:2 PP:2 MB:3 Iter:1}
	0x5f8421c282748960, // {DP:2 PP:2 MB:4 Iter:1}
	0x516bc05f28ec8ca8, // {DP:2 PP:3 MB:1 Iter:1}
	0x01e7876f020e7444, // {DP:2 PP:3 MB:2 Iter:1}
	0x9ef9d156926a668e, // {DP:2 PP:3 MB:3 Iter:1}
	0x43ab558c31b4ad4b, // {DP:2 PP:3 MB:4 Iter:1}
	0x0ff92ea11dec7877, // {DP:3 PP:1 MB:1 Iter:1}
	0xfd33028c4648010c, // {DP:3 PP:1 MB:2 Iter:1}
	0x0f3fd95d29e2380a, // {DP:3 PP:1 MB:3 Iter:1}
	0xd71d0c78172ed8e9, // {DP:3 PP:1 MB:4 Iter:1}
	0x686c368cd84df586, // {DP:3 PP:2 MB:1 Iter:1}
	0x6ec449d21f347135, // {DP:3 PP:2 MB:2 Iter:1}
	0x4ad4a29ee8817dc8, // {DP:3 PP:2 MB:3 Iter:1}
	0x4bd4428d9bc1137b, // {DP:3 PP:2 MB:4 Iter:1}
	0x2591cdb275f6d2b5, // {DP:3 PP:3 MB:1 Iter:1}
	0xe46501e32ab91010, // {DP:3 PP:3 MB:2 Iter:1}
	0xa8f06c4593d17dd6, // {DP:3 PP:3 MB:3 Iter:1}
	0x960436887104d4a4, // {DP:3 PP:3 MB:4 Iter:1}
	0x68eaef5f97e6c7aa, // re-join
}

// TestProgramCodecDigestsUnchanged is the byte-identity gate of the Program
// codec: every compiled Program over every small shape and failure set,
// every live splice of a single kill and a re-join must encode to the
// pinned digest, and every encoding must survive a decode→encode round trip
// unchanged. The splices' identity digests hold them to the same ops,
// streams, edges and times however their instructions are numbered. A
// change that alters any of them fails here and prints the new tables;
// re-pin only the table a change is meant to move.
func TestProgramCodecDigestsUnchanged(t *testing.T) {
	var compiled, spliced, identity []uint64
	var labels, spliceLabels []string
	total := 0
	for _, sh := range codecDigestShapes() {
		d, n := programShapeDigest(t, sh)
		compiled, labels = append(compiled, d.compiled), append(labels, fmt.Sprintf("%+v", sh))
		if sh.Iter == 1 {
			spliced, identity = append(spliced, d.spliced), append(identity, d.identity)
			spliceLabels = append(spliceLabels, fmt.Sprintf("%+v", sh))
		}
		total += n
	}
	s, i, n := rejoinDigest(t)
	if n == 0 {
		t.Fatal("no re-join cut was admissible: the re-join sweep pins nothing")
	}
	spliced, identity = append(spliced, s), append(identity, i)
	spliceLabels = append(spliceLabels, "re-join")
	total += n
	for _, tab := range []struct {
		name        string
		got, pinned []uint64
		labels      []string
	}{
		{"compiledDigests", compiled, compiledDigests, labels},
		{"splicedDigests", spliced, splicedDigests, spliceLabels},
		{"identityDigests", identity, identityDigests, spliceLabels},
	} {
		mismatch := len(tab.got) != len(tab.pinned)
		for i := 0; !mismatch && i < len(tab.got); i++ {
			if tab.got[i] != tab.pinned[i] {
				t.Errorf("%s %s: digest %#016x, pinned %#016x", tab.name, tab.labels[i], tab.got[i], tab.pinned[i])
				mismatch = true
			}
		}
		if mismatch {
			var b strings.Builder
			for i, d := range tab.got {
				fmt.Fprintf(&b, "\t%#016x, // %s\n", d, tab.labels[i])
			}
			t.Errorf("%d rows hash differently from %s; at this tree it reads:\n%s", len(tab.got), tab.name, b.String())
		}
	}
	t.Logf("%d Programs encode as pinned", total)
}
