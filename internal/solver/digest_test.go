package solver

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"recycle/internal/schedule"
)

// digestShapes lists every shape up to DP3×PP3×MB4 over one and two
// iterations, in the order solveDigests are pinned.
func digestShapes() []schedule.Shape {
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

// digestFailureSets returns no failure, every single failure and every
// double failure of the shape's workers.
func digestFailureSets(sh schedule.Shape) []map[schedule.Worker]bool {
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

// digestInputs returns the solver configurations every (shape, failure set)
// is solved under: each combination of the Decoupled, Staggered and Naive
// toggles on unit slots without a cap, with a global memory cap and with
// per-stage caps, then on skewed durations with comm latency, homogeneous
// and with a 2× straggler through Costs.
func digestInputs(sh schedule.Shape) []Input {
	skewed := schedule.Durations{F: 2, BInput: 3, BWeight: 1, Opt: 2, Comm: 1}
	slow := schedule.Worker{Stage: sh.PP - 1, Pipeline: 0}
	straggler := func(w schedule.Worker, t schedule.OpType) int64 {
		if w == slow && t != schedule.Optimizer {
			return 2 * skewed.Of(t)
		}
		return skewed.Of(t)
	}
	perStage := make([]int, sh.PP)
	for i := range perStage {
		perStage[i] = 1 + sh.PP - i
	}
	var out []Input
	for toggles := 0; toggles < 8; toggles++ {
		base := Input{Shape: sh, Durations: schedule.UnitSlots, Decoupled: toggles&1 != 0, Staggered: toggles&2 != 0, Naive: toggles&4 != 0}
		capped, staged := base, base
		capped.MemCap = 2
		staged.MemCapPerStage = perStage
		hetero, uniform := base, base
		uniform.Durations = skewed
		hetero.Durations, hetero.Costs = skewed, straggler
		out = append(out, base, capped, staged, uniform, hetero)
	}
	return out
}

// hashPlacements folds one solve outcome into h: the error text, or every
// placement in the order the schedule holds them.
func hashPlacements(h hash.Hash64, s *schedule.Schedule, err error) {
	if err != nil {
		h.Write([]byte(err.Error()))
		return
	}
	var buf [8 * 8]byte
	for _, p := range s.Placements {
		for i, v := range [...]int64{int64(p.Op.Stage), int64(p.Op.MB), int64(p.Op.Home), int64(p.Op.Type), int64(p.Op.Exec), int64(p.Op.Iter), p.Start, p.End} {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		h.Write(buf[:])
	}
}

// shapeDigest solves every configuration and failure set of the shape.
func shapeDigest(sh schedule.Shape) (digest uint64, solves int) {
	h := fnv.New64a()
	for _, failed := range digestFailureSets(sh) {
		for _, in := range digestInputs(sh) {
			in.Failed = failed
			s, err := Solve(in)
			hashPlacements(h, s, err)
			solves++
		}
	}
	return h.Sum64(), solves
}

// scratchDigests pins every schedule shapeDigest hashes: one FNV-64a digest
// per shape of digestShapes, in order.
var scratchDigests = []uint64{
	0xfa7ca288f9c71985, // {DP:1 PP:1 MB:1 Iter:1}
	0xb967b4243867e9c5, // {DP:1 PP:1 MB:1 Iter:2}
	0xc9c71f308019ab85, // {DP:1 PP:1 MB:2 Iter:1}
	0x39ecaa2c5ba1be45, // {DP:1 PP:1 MB:2 Iter:2}
	0xc4458b899220d7c5, // {DP:1 PP:1 MB:3 Iter:1}
	0x29e2f2aabc26fdc5, // {DP:1 PP:1 MB:3 Iter:2}
	0x6dd7851150738b85, // {DP:1 PP:1 MB:4 Iter:1}
	0xfd141f2d0793a445, // {DP:1 PP:1 MB:4 Iter:2}
	0xbdc47e25f5f9ebc5, // {DP:1 PP:2 MB:1 Iter:1}
	0x9ed8d0b96b3dc6c5, // {DP:1 PP:2 MB:1 Iter:2}
	0x0f679b9145b5c785, // {DP:1 PP:2 MB:2 Iter:1}
	0x879198e98f756b05, // {DP:1 PP:2 MB:2 Iter:2}
	0x076eb5298fbedd45, // {DP:1 PP:2 MB:3 Iter:1}
	0x81818b495ae4f885, // {DP:1 PP:2 MB:3 Iter:2}
	0xc23af7625d09e785, // {DP:1 PP:2 MB:4 Iter:1}
	0xb882ec3b7c11ba85, // {DP:1 PP:2 MB:4 Iter:2}
	0x1decf81ab9233ab5, // {DP:1 PP:3 MB:1 Iter:1}
	0x2af06bf94c13d5b5, // {DP:1 PP:3 MB:1 Iter:2}
	0x496ae0dfb8f07b75, // {DP:1 PP:3 MB:2 Iter:1}
	0x0d1dfc0553eca175, // {DP:1 PP:3 MB:2 Iter:2}
	0x4ac4e5298af44df5, // {DP:1 PP:3 MB:3 Iter:1}
	0x745a6bbe78616bb5, // {DP:1 PP:3 MB:3 Iter:2}
	0x932c5efe19ba0375, // {DP:1 PP:3 MB:4 Iter:1}
	0x6e978b91095740b5, // {DP:1 PP:3 MB:4 Iter:2}
	0x7eb733821ff670c5, // {DP:2 PP:1 MB:1 Iter:1}
	0x1a4037c54e4b88c5, // {DP:2 PP:1 MB:1 Iter:2}
	0xc88d585b939bf605, // {DP:2 PP:1 MB:2 Iter:1}
	0x6a37126321393a85, // {DP:2 PP:1 MB:2 Iter:2}
	0xdfe25ebf2eb4aec5, // {DP:2 PP:1 MB:3 Iter:1}
	0x61c7d5928ebebd45, // {DP:2 PP:1 MB:3 Iter:2}
	0x4ffb801e4e6e80c5, // {DP:2 PP:1 MB:4 Iter:1}
	0xf5d0b61a23176e45, // {DP:2 PP:1 MB:4 Iter:2}
	0x17088a7d85c31a95, // {DP:2 PP:2 MB:1 Iter:1}
	0xb2570ec2fa875f65, // {DP:2 PP:2 MB:1 Iter:2}
	0x90b638f3aae05f15, // {DP:2 PP:2 MB:2 Iter:1}
	0xd40adb2615b05e55, // {DP:2 PP:2 MB:2 Iter:2}
	0x3a0ce2653a470585, // {DP:2 PP:2 MB:3 Iter:1}
	0xdee800dd299f7345, // {DP:2 PP:2 MB:3 Iter:2}
	0x8fedc7385b9633f5, // {DP:2 PP:2 MB:4 Iter:1}
	0x873cdea7daa71e65, // {DP:2 PP:2 MB:4 Iter:2}
	0x926c0f6b573facd1, // {DP:2 PP:3 MB:1 Iter:1}
	0x9726d2ca8b7738a9, // {DP:2 PP:3 MB:1 Iter:2}
	0xacf9425fc0fa9085, // {DP:2 PP:3 MB:2 Iter:1}
	0x4b5869c75d233889, // {DP:2 PP:3 MB:2 Iter:2}
	0xd3fa366c5ba5143d, // {DP:2 PP:3 MB:3 Iter:1}
	0x5bbae921c6350bd1, // {DP:2 PP:3 MB:3 Iter:2}
	0x066e8b436e24d199, // {DP:2 PP:3 MB:4 Iter:1}
	0xa8939c08ce2d5e6d, // {DP:2 PP:3 MB:4 Iter:2}
	0xb32053019cd2cc25, // {DP:3 PP:1 MB:1 Iter:1}
	0x0833792c7370b5e5, // {DP:3 PP:1 MB:1 Iter:2}
	0xda8d49eb29b05725, // {DP:3 PP:1 MB:2 Iter:1}
	0x56621717957cece5, // {DP:3 PP:1 MB:2 Iter:2}
	0xb57be350f8f0c025, // {DP:3 PP:1 MB:3 Iter:1}
	0x431b84161b759565, // {DP:3 PP:1 MB:3 Iter:2}
	0x5e5682d15a314f65, // {DP:3 PP:1 MB:4 Iter:1}
	0x7e138224cff536c5, // {DP:3 PP:1 MB:4 Iter:2}
	0xc30c67044751da25, // {DP:3 PP:2 MB:1 Iter:1}
	0xcd2c99fcd3737839, // {DP:3 PP:2 MB:1 Iter:2}
	0xd3da202133e9c8e9, // {DP:3 PP:2 MB:2 Iter:1}
	0x0dbb893674f4a35d, // {DP:3 PP:2 MB:2 Iter:2}
	0xee29149746316c41, // {DP:3 PP:2 MB:3 Iter:1}
	0x3c42064fd5aff8a5, // {DP:3 PP:2 MB:3 Iter:2}
	0x36e405d9dc166be7, // {DP:3 PP:2 MB:4 Iter:1}
	0x0804db55ec71d42a, // {DP:3 PP:2 MB:4 Iter:2}
	0xf7c3c6f99296405b, // {DP:3 PP:3 MB:1 Iter:1}
	0x1cdee424b4d1104b, // {DP:3 PP:3 MB:1 Iter:2}
	0x10a8a206c33a6efd, // {DP:3 PP:3 MB:2 Iter:1}
	0xc46222bd74af47f5, // {DP:3 PP:3 MB:2 Iter:2}
	0x2ca95e3f18c12a4f, // {DP:3 PP:3 MB:3 Iter:1}
	0x95a57b6b071ac16b, // {DP:3 PP:3 MB:3 Iter:2}
	0xeb8fb980e9db69d7, // {DP:3 PP:3 MB:4 Iter:1}
	0x20201e7fd72b0e02, // {DP:3 PP:3 MB:4 Iter:2}
}

// TestSolveDigestsUnchanged is the bit-identity gate of the solver: every
// schedule Solve returns — its placements and their order — over every
// small shape, technique toggle, memory cap, cost model and failure set
// must hash to the pinned digest. A change that alters any schedule fails
// here and prints the new table; re-pin only when a schedule is meant to
// change.
func TestSolveDigestsUnchanged(t *testing.T) {
	if raceEnabled {
		t.Skip("a single-goroutine sweep: the race detector finds nothing here and multiplies its time tenfold")
	}
	shapes := digestShapes()
	got := make([]uint64, len(shapes))
	total := 0
	for i, sh := range shapes {
		var n int
		got[i], n = shapeDigest(sh)
		total += n
	}
	mismatch := len(got) != len(scratchDigests)
	for i := 0; !mismatch && i < len(got); i++ {
		if got[i] != scratchDigests[i] {
			t.Errorf("shape %+v: digest %#016x, pinned %#016x", shapes[i], got[i], scratchDigests[i])
			mismatch = true
		}
	}
	if mismatch {
		var b strings.Builder
		for i, d := range got {
			fmt.Fprintf(&b, "\t%#016x, // %+v\n", d, shapes[i])
		}
		t.Fatalf("%d solves hash differently from the pinned table; at this tree it reads:\n%s", total, b.String())
	}
}
