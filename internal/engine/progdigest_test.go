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
// builds, as encoded before the in-memory Program went flat: one FNV-64a
// digest per shape of codecDigestShapes, in order, then the re-join sweep's.
var programDigests = []uint64{
	0x61a5833b3379651f, // {DP:1 PP:1 MB:1 Iter:1}
	0xbf7e83f00cc46e97, // {DP:1 PP:1 MB:1 Iter:2}
	0xa164419b5a921fa9, // {DP:1 PP:1 MB:2 Iter:1}
	0x0fa70d436a8ec2ef, // {DP:1 PP:1 MB:2 Iter:2}
	0x44805fecc15b022f, // {DP:1 PP:1 MB:3 Iter:1}
	0xe1eaad0659d1f99b, // {DP:1 PP:1 MB:3 Iter:2}
	0x1c8f9e75cd2a67d5, // {DP:1 PP:1 MB:4 Iter:1}
	0xe75b229eb12ae73b, // {DP:1 PP:1 MB:4 Iter:2}
	0x7d1a16853792a6a1, // {DP:1 PP:2 MB:1 Iter:1}
	0x8925a43087144067, // {DP:1 PP:2 MB:1 Iter:2}
	0x61d966d0879ca6fd, // {DP:1 PP:2 MB:2 Iter:1}
	0x38438f6767a095e1, // {DP:1 PP:2 MB:2 Iter:2}
	0xfe861a1d9cc0ff75, // {DP:1 PP:2 MB:3 Iter:1}
	0xb34653a8fe325c69, // {DP:1 PP:2 MB:3 Iter:2}
	0xe74f03d09f51ed91, // {DP:1 PP:2 MB:4 Iter:1}
	0x67f365471fb37b2b, // {DP:1 PP:2 MB:4 Iter:2}
	0x627f492260de3e8d, // {DP:1 PP:3 MB:1 Iter:1}
	0x52b831e53b083bed, // {DP:1 PP:3 MB:1 Iter:2}
	0x15a6994a9027ccaf, // {DP:1 PP:3 MB:2 Iter:1}
	0xd2cab8dd6d982f01, // {DP:1 PP:3 MB:2 Iter:2}
	0x41a9b1ea70672013, // {DP:1 PP:3 MB:3 Iter:1}
	0x6d968a696bdf9c6b, // {DP:1 PP:3 MB:3 Iter:2}
	0x8a2846fec6a01581, // {DP:1 PP:3 MB:4 Iter:1}
	0x03f6683ad5a9c0d3, // {DP:1 PP:3 MB:4 Iter:2}
	0x0bc04ca193eb3ed1, // {DP:2 PP:1 MB:1 Iter:1}
	0x0d19a867832f22b9, // {DP:2 PP:1 MB:1 Iter:2}
	0xfa74c032c6177e19, // {DP:2 PP:1 MB:2 Iter:1}
	0x913b303075ebc033, // {DP:2 PP:1 MB:2 Iter:2}
	0x9851bb235f1a001d, // {DP:2 PP:1 MB:3 Iter:1}
	0x0dd37a159c03d007, // {DP:2 PP:1 MB:3 Iter:2}
	0xc37b759f1cf7e7eb, // {DP:2 PP:1 MB:4 Iter:1}
	0x3b605ca71c31d465, // {DP:2 PP:1 MB:4 Iter:2}
	0x7fd41839ed17ec24, // {DP:2 PP:2 MB:1 Iter:1}
	0xab8ba3f906703599, // {DP:2 PP:2 MB:1 Iter:2}
	0xf1c30c1d85d6b268, // {DP:2 PP:2 MB:2 Iter:1}
	0xc94c2952386748c9, // {DP:2 PP:2 MB:2 Iter:2}
	0xa412c649f77fdf10, // {DP:2 PP:2 MB:3 Iter:1}
	0xcbf2a56d054facf1, // {DP:2 PP:2 MB:3 Iter:2}
	0x1c201911130e9778, // {DP:2 PP:2 MB:4 Iter:1}
	0x7e026ca06a9fb423, // {DP:2 PP:2 MB:4 Iter:2}
	0x3da39df68e1df63c, // {DP:2 PP:3 MB:1 Iter:1}
	0x1737b82c25c014ff, // {DP:2 PP:3 MB:1 Iter:2}
	0xe34fff2db787c74c, // {DP:2 PP:3 MB:2 Iter:1}
	0x5f5b5b693afcd7cd, // {DP:2 PP:3 MB:2 Iter:2}
	0x6735daf94873b306, // {DP:2 PP:3 MB:3 Iter:1}
	0xb08f0afb4cba5179, // {DP:2 PP:3 MB:3 Iter:2}
	0xdb3835d958f53ebe, // {DP:2 PP:3 MB:4 Iter:1}
	0x80d0e6c3481ae6c3, // {DP:2 PP:3 MB:4 Iter:2}
	0xb76032bf11f424d2, // {DP:3 PP:1 MB:1 Iter:1}
	0xff07abdc340c23a2, // {DP:3 PP:1 MB:1 Iter:2}
	0x5b0d287c757f8077, // {DP:3 PP:1 MB:2 Iter:1}
	0x7b2c5c01479f5943, // {DP:3 PP:1 MB:2 Iter:2}
	0xb535e3d079329f23, // {DP:3 PP:1 MB:3 Iter:1}
	0x8541f06952003c6f, // {DP:3 PP:1 MB:3 Iter:2}
	0x9245f818532f5fd3, // {DP:3 PP:1 MB:4 Iter:1}
	0x8119011f26826ccb, // {DP:3 PP:1 MB:4 Iter:2}
	0x6177964a358fe0bf, // {DP:3 PP:2 MB:1 Iter:1}
	0x68409bb64b05b9f9, // {DP:3 PP:2 MB:1 Iter:2}
	0xfa8aa15399edf9d6, // {DP:3 PP:2 MB:2 Iter:1}
	0x1db285d70c64d0d0, // {DP:3 PP:2 MB:2 Iter:2}
	0x45fd790a3e0165b9, // {DP:3 PP:2 MB:3 Iter:1}
	0x56d8324e4102160f, // {DP:3 PP:2 MB:3 Iter:2}
	0xdd3ed9833cf63461, // {DP:3 PP:2 MB:4 Iter:1}
	0x516be86c42565e3d, // {DP:3 PP:2 MB:4 Iter:2}
	0xef7c7bacba103af2, // {DP:3 PP:3 MB:1 Iter:1}
	0x43125e0b277b8ae5, // {DP:3 PP:3 MB:1 Iter:2}
	0xd3f55319f8eec818, // {DP:3 PP:3 MB:2 Iter:1}
	0x5fb33c9763625996, // {DP:3 PP:3 MB:2 Iter:2}
	0xb4f3a35921fa8118, // {DP:3 PP:3 MB:3 Iter:1}
	0xe9825c45eed7c4d9, // {DP:3 PP:3 MB:3 Iter:2}
	0x13885153f00ec7f2, // {DP:3 PP:3 MB:4 Iter:1}
	0x34150c28f316b0e8, // {DP:3 PP:3 MB:4 Iter:2}
	0xc300615fc13cc46a, // re-join
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
