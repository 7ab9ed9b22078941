package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
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
// compiled from: decoupled on unit slots, and coupled on skewed durations
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

// programShapeDigest compiles every failure set of the shape (none, every
// single and every double failure) under each input, and live-splices each
// single-iteration healthy Program at every cut for every single kill; an
// error or inadmissible cut folds in as a one-byte marker.
func programShapeDigest(t *testing.T, sh schedule.Shape) (digest uint64, programs int) {
	h := fnv.New64a()
	n := sh.DP * sh.PP
	sets := []map[schedule.Worker]bool{nil}
	for a := 0; a < n; a++ {
		sets = append(sets, map[schedule.Worker]bool{sh.WorkerAt(a): true})
		for b := a + 1; b < n; b++ {
			sets = append(sets, map[schedule.Worker]bool{sh.WorkerAt(a): true, sh.WorkerAt(b): true})
		}
	}
	for _, in := range codecDigestInputs(sh) {
		for _, failed := range sets {
			in.Failed = failed
			label := fmt.Sprintf("%+v %+v failed %v", sh, in.Durations, failed)
			s, err := solver.Solve(in)
			if err != nil {
				h.Write([]byte{'x'})
				continue
			}
			prog, err := schedule.Compile(s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			hashEncoded(t, h, label, prog)
			programs++
			if failed != nil || sh.Iter > 1 {
				continue
			}
			full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for _, victim := range prog.Workers() {
				for cut := int64(1); cut < full.Makespan; cut++ {
					lv, err := replay.LiveSplice(replay.LiveEvent{Prog: prog, Cut: cut, Fail: []schedule.Worker{victim}})
					if err != nil {
						h.Write([]byte{'x'})
						continue
					}
					hashEncoded(t, h, fmt.Sprintf("%s, %s killed at %d", label, victim, cut), lv.Program)
					programs++
				}
			}
		}
	}
	return h.Sum64(), programs
}

// rejoinDigest live-splices one re-join — W1_0 of a DP3×PP2×MB4 fleet that
// lost it — at every cut of the degraded Program.
func rejoinDigest(t *testing.T) (digest uint64, programs int) {
	h := fnv.New64a()
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
			h.Write([]byte{'x'})
			continue
		}
		hashEncoded(t, h, fmt.Sprintf("%s re-joins at %d", w, cut), lv.Program)
		programs++
	}
	return h.Sum64(), programs
}

// programDigests pins the EncodeProgram bytes of every Program the sweep
// builds, as codec v4 lays them out (none carries a cost table, so each
// differs from its v3 bytes only in the version byte and one zero-length
// cost section): one FNV-64a digest per shape of codecDigestShapes, in
// order, then the re-join sweep's.
var programDigests = []uint64{
	0x192f39e73b9f6197, // {DP:1 PP:1 MB:1 Iter:1}
	0xb399612eb2964bfb, // {DP:1 PP:1 MB:1 Iter:2}
	0x65754ac8e927aa37, // {DP:1 PP:1 MB:2 Iter:1}
	0x90b756c1dc0cd3b5, // {DP:1 PP:1 MB:2 Iter:2}
	0x3bca08fcc8173b47, // {DP:1 PP:1 MB:3 Iter:1}
	0x746a5f3ece83006f, // {DP:1 PP:1 MB:3 Iter:2}
	0x2dcf99783625e20f, // {DP:1 PP:1 MB:4 Iter:1}
	0x8d0e3ce161b4380d, // {DP:1 PP:1 MB:4 Iter:2}
	0xf80a881afda09b85, // {DP:1 PP:2 MB:1 Iter:1}
	0xbbb8ced3cfe76f95, // {DP:1 PP:2 MB:1 Iter:2}
	0x95099f0878a545dd, // {DP:1 PP:2 MB:2 Iter:1}
	0xc049898f6f636465, // {DP:1 PP:2 MB:2 Iter:2}
	0xe27b4d2e442cc32d, // {DP:1 PP:2 MB:3 Iter:1}
	0x56692513900c215d, // {DP:1 PP:2 MB:3 Iter:2}
	0xcf2b882ceb6c1331, // {DP:1 PP:2 MB:4 Iter:1}
	0xf762a38881b89719, // {DP:1 PP:2 MB:4 Iter:2}
	0xbe1368668aa9ce5d, // {DP:1 PP:3 MB:1 Iter:1}
	0x8c6bce7d67dfffc3, // {DP:1 PP:3 MB:1 Iter:2}
	0xbe315c6bd29e6bd1, // {DP:1 PP:3 MB:2 Iter:1}
	0x7e0be6b47ff4ffab, // {DP:1 PP:3 MB:2 Iter:2}
	0xa2803ead6aaa77e1, // {DP:1 PP:3 MB:3 Iter:1}
	0xea4cdaff84dafa27, // {DP:1 PP:3 MB:3 Iter:2}
	0xa7f28368176ca5c9, // {DP:1 PP:3 MB:4 Iter:1}
	0xd96c31a0a9b01363, // {DP:1 PP:3 MB:4 Iter:2}
	0xa55d3879820a5ec9, // {DP:2 PP:1 MB:1 Iter:1}
	0xb7d096a92292f6f3, // {DP:2 PP:1 MB:1 Iter:2}
	0x5141e0faa1a3e843, // {DP:2 PP:1 MB:2 Iter:1}
	0x8cc72c6257e61115, // {DP:2 PP:1 MB:2 Iter:2}
	0x358510903513bcab, // {DP:2 PP:1 MB:3 Iter:1}
	0x577aaacbf60b74b3, // {DP:2 PP:1 MB:3 Iter:2}
	0x16e99a8c79b6285f, // {DP:2 PP:1 MB:4 Iter:1}
	0xe9cfd943f76e7e55, // {DP:2 PP:1 MB:4 Iter:2}
	0xcbbd766a9f844a40, // {DP:2 PP:2 MB:1 Iter:1}
	0x1322f490a92d98c1, // {DP:2 PP:2 MB:1 Iter:2}
	0x95f3f06d3c3586ea, // {DP:2 PP:2 MB:2 Iter:1}
	0x355e23c235808f53, // {DP:2 PP:2 MB:2 Iter:2}
	0x8c68a7b23f0b311c, // {DP:2 PP:2 MB:3 Iter:1}
	0xff85a4fec6512611, // {DP:2 PP:2 MB:3 Iter:2}
	0x673763315d86f6ca, // {DP:2 PP:2 MB:4 Iter:1}
	0x23c0bd0b8b7d55f9, // {DP:2 PP:2 MB:4 Iter:2}
	0x23c1b45d62f20cfa, // {DP:2 PP:3 MB:1 Iter:1}
	0x0728255e99d6e7bb, // {DP:2 PP:3 MB:1 Iter:2}
	0x3cb620e2b8b208f8, // {DP:2 PP:3 MB:2 Iter:1}
	0x90c27425ea54ede7, // {DP:2 PP:3 MB:2 Iter:2}
	0x16ccd5e486603f14, // {DP:2 PP:3 MB:3 Iter:1}
	0xbd51ddde2b538a79, // {DP:2 PP:3 MB:3 Iter:2}
	0xc753a164885e4da6, // {DP:2 PP:3 MB:4 Iter:1}
	0x6e26c62c16eb20b7, // {DP:2 PP:3 MB:4 Iter:2}
	0x601581001e9e7a46, // {DP:3 PP:1 MB:1 Iter:1}
	0x6f18d3469d2c6f12, // {DP:3 PP:1 MB:1 Iter:2}
	0x256eb311fb3edaa3, // {DP:3 PP:1 MB:2 Iter:1}
	0x81d4085a998a27c9, // {DP:3 PP:1 MB:2 Iter:2}
	0xcb3d439e9eae1b0d, // {DP:3 PP:1 MB:3 Iter:1}
	0x19c1ab9af464acef, // {DP:3 PP:1 MB:3 Iter:2}
	0x9747c048036eff0f, // {DP:3 PP:1 MB:4 Iter:1}
	0xfab03ee564ce8e4d, // {DP:3 PP:1 MB:4 Iter:2}
	0x8b190ad96aa1fc51, // {DP:3 PP:2 MB:1 Iter:1}
	0xe3422c31abf184d1, // {DP:3 PP:2 MB:1 Iter:2}
	0xf92a6e2f137ccfcc, // {DP:3 PP:2 MB:2 Iter:1}
	0x1160156f5f7c76f6, // {DP:3 PP:2 MB:2 Iter:2}
	0x134ad4c7e57a02ef, // {DP:3 PP:2 MB:3 Iter:1}
	0x717b14e212b10bdb, // {DP:3 PP:2 MB:3 Iter:2}
	0xa1276cc3abe5b937, // {DP:3 PP:2 MB:4 Iter:1}
	0xa66b8e559ca36a53, // {DP:3 PP:2 MB:4 Iter:2}
	0x278b9b0e2c39074a, // {DP:3 PP:3 MB:1 Iter:1}
	0xeb206c9bb5b03ab9, // {DP:3 PP:3 MB:1 Iter:2}
	0xf551fd0d7f56cbd8, // {DP:3 PP:3 MB:2 Iter:1}
	0xe8ee830d4952b2de, // {DP:3 PP:3 MB:2 Iter:2}
	0xeda8a670e7460e04, // {DP:3 PP:3 MB:3 Iter:1}
	0x5e814f270fe755a3, // {DP:3 PP:3 MB:3 Iter:2}
	0x115eecc8dd18c730, // {DP:3 PP:3 MB:4 Iter:1}
	0xfbefe3ef4ecd3dc2, // {DP:3 PP:3 MB:4 Iter:2}
	0x5613f6b5fe796c20, // re-join
}

// TestProgramCodecDigestsUnchanged is the byte-identity gate of the Program
// codec: every compiled Program over every small shape and failure set,
// every live splice of a single kill and a re-join must encode to the
// pinned digest, and every encoding must survive a decode→encode round trip
// unchanged. A change that alters any encoding fails here and prints the
// new table; re-pin only when the wire bytes are meant to change.
func TestProgramCodecDigestsUnchanged(t *testing.T) {
	shapes := codecDigestShapes()
	got := make([]uint64, 0, len(shapes)+1)
	labels := make([]string, 0, len(shapes)+1)
	total := 0
	for _, sh := range shapes {
		d, n := programShapeDigest(t, sh)
		got, labels = append(got, d), append(labels, fmt.Sprintf("%+v", sh))
		total += n
	}
	d, n := rejoinDigest(t)
	if n == 0 {
		t.Fatal("no re-join cut was admissible: the re-join sweep pins nothing")
	}
	got, labels = append(got, d), append(labels, "re-join")
	total += n
	mismatch := len(got) != len(programDigests)
	for i := 0; !mismatch && i < len(got); i++ {
		if got[i] != programDigests[i] {
			t.Errorf("%s: digest %#016x, pinned %#016x", labels[i], got[i], programDigests[i])
			mismatch = true
		}
	}
	if mismatch {
		var b strings.Builder
		for i, d := range got {
			fmt.Fprintf(&b, "\t%#016x, // %s\n", d, labels[i])
		}
		t.Fatalf("%d Programs encode differently from the pinned table; at this tree it reads:\n%s", total, b.String())
	}
	t.Logf("%d Programs encode as pinned", total)
}
