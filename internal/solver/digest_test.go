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

// rescaled is the input with every duration, comm latency included, doubled:
// the uniform recalibration a warm hint replays its op order under.
func rescaled(in Input) Input {
	d := in.Durations
	in.Durations = schedule.Durations{F: 2 * d.F, BInput: 2 * d.BInput, BWeight: 2 * d.BWeight, Opt: 2 * d.Opt, Comm: 2 * d.Comm}
	if c := in.Costs; c != nil {
		in.Costs = func(w schedule.Worker, t schedule.OpType) int64 { return 2 * c(w, t) }
	}
	return in
}

// hashSolve folds one SolveInstrumented outcome into h: the error text, or
// the solve kind and every placement in the order the schedule holds them.
func hashSolve(h hash.Hash64, s *schedule.Schedule, info SolveInfo, err error) {
	if err != nil {
		h.Write([]byte(err.Error()))
		return
	}
	var buf [8 * 9]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(info.Kind))
	h.Write(buf[:8])
	for _, p := range s.Placements {
		for i, v := range [...]int64{int64(p.Op.Stage), int64(p.Op.MB), int64(p.Op.Home), int64(p.Op.Type), int64(p.Op.Exec), int64(p.Op.Iter), p.Start, p.End} {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		h.Write(buf[:64])
	}
}

// shapeDigest solves every configuration and failure set of the shape, then
// re-solves each success warm: once identical, once uniformly rescaled.
func shapeDigest(sh schedule.Shape) (digest uint64, solves int) {
	h := fnv.New64a()
	for _, failed := range digestFailureSets(sh) {
		for _, in := range digestInputs(sh) {
			in.Failed = failed
			s, info, err := SolveInstrumented(in)
			hashSolve(h, s, info, err)
			solves++
			if err != nil {
				continue
			}
			for _, warm := range []Input{in, rescaled(in)} {
				warm.Hint = info.Hint
				ws, winfo, werr := SolveInstrumented(warm)
				hashSolve(h, ws, winfo, werr)
				solves++
			}
		}
	}
	return h.Sum64(), solves
}

// solveDigests pins what Solve returned before the solver moved onto the
// dense index: one FNV-64a digest per shape of digestShapes, in order.
var solveDigests = []uint64{
	0xcb9caecdc7edd505, // {DP:1 PP:1 MB:1 Iter:1}
	0xa9cc5bfdfa8607c5, // {DP:1 PP:1 MB:1 Iter:2}
	0x1a0b0737eb80ee85, // {DP:1 PP:1 MB:2 Iter:1}
	0xd3777b0c39039545, // {DP:1 PP:1 MB:2 Iter:2}
	0xdce70908abf94685, // {DP:1 PP:1 MB:3 Iter:1}
	0x013e9544913ea045, // {DP:1 PP:1 MB:3 Iter:2}
	0x9ba58b58ffd0d345, // {DP:1 PP:1 MB:4 Iter:1}
	0xbf9db05bff3ac6c5, // {DP:1 PP:1 MB:4 Iter:2}
	0x857daa20dbfb2fc5, // {DP:1 PP:2 MB:1 Iter:1}
	0x8a7a2cec31f893c5, // {DP:1 PP:2 MB:1 Iter:2}
	0xa399adc7d765aa05, // {DP:1 PP:2 MB:2 Iter:1}
	0x84f20c506a11fe45, // {DP:1 PP:2 MB:2 Iter:2}
	0x3b237ef6aba959c5, // {DP:1 PP:2 MB:3 Iter:1}
	0x447783f4925ec905, // {DP:1 PP:2 MB:3 Iter:2}
	0x9d35c4085bf5c1c5, // {DP:1 PP:2 MB:4 Iter:1}
	0xdb45de65746eb505, // {DP:1 PP:2 MB:4 Iter:2}
	0x3c67e457ebbf3ed5, // {DP:1 PP:3 MB:1 Iter:1}
	0x4ad23cd3933ea875, // {DP:1 PP:3 MB:1 Iter:2}
	0x2a51cba367d3a9f5, // {DP:1 PP:3 MB:2 Iter:1}
	0x6ba253349955f5f5, // {DP:1 PP:3 MB:2 Iter:2}
	0xa4774f46f66387b5, // {DP:1 PP:3 MB:3 Iter:1}
	0x1ec6d9b91619f575, // {DP:1 PP:3 MB:3 Iter:2}
	0x9a146cf9a8f15b15, // {DP:1 PP:3 MB:4 Iter:1}
	0xf99a1804f614de15, // {DP:1 PP:3 MB:4 Iter:2}
	0x5fdbc1573ddbb285, // {DP:2 PP:1 MB:1 Iter:1}
	0xe2c466572d1eb7c5, // {DP:2 PP:1 MB:1 Iter:2}
	0x91b3147794918645, // {DP:2 PP:1 MB:2 Iter:1}
	0x31a080e74b3b5605, // {DP:2 PP:1 MB:2 Iter:2}
	0xbf7d128b1dc2a505, // {DP:2 PP:1 MB:3 Iter:1}
	0xb274666d5e1f9775, // {DP:2 PP:1 MB:3 Iter:2}
	0x85a971a035649a45, // {DP:2 PP:1 MB:4 Iter:1}
	0x778220a8afed898d, // {DP:2 PP:1 MB:4 Iter:2}
	0xbf257f01bc5fa555, // {DP:2 PP:2 MB:1 Iter:1}
	0x5d077ee7f36e5635, // {DP:2 PP:2 MB:1 Iter:2}
	0x2dcdf1464652fbc5, // {DP:2 PP:2 MB:2 Iter:1}
	0x04e87de8e02a3905, // {DP:2 PP:2 MB:2 Iter:2}
	0xb447f8f08e3172c5, // {DP:2 PP:2 MB:3 Iter:1}
	0x090dab46db8e5eed, // {DP:2 PP:2 MB:3 Iter:2}
	0x720ee7a8f4e717d5, // {DP:2 PP:2 MB:4 Iter:1}
	0xf17500bbb3279b25, // {DP:2 PP:2 MB:4 Iter:2}
	0xec8ed31589d55afd, // {DP:2 PP:3 MB:1 Iter:1}
	0xc6a2e8d0e38dbddd, // {DP:2 PP:3 MB:1 Iter:2}
	0x7fd4f56bd1221615, // {DP:2 PP:3 MB:2 Iter:1}
	0x210bd5251a23836d, // {DP:2 PP:3 MB:2 Iter:2}
	0x447946d2eaf2fff5, // {DP:2 PP:3 MB:3 Iter:1}
	0x245085ec252e41f1, // {DP:2 PP:3 MB:3 Iter:2}
	0x9b06be30a546dffd, // {DP:2 PP:3 MB:4 Iter:1}
	0xb67124db37679036, // {DP:2 PP:3 MB:4 Iter:2}
	0x19fbcf4d3e5b2e65, // {DP:3 PP:1 MB:1 Iter:1}
	0x20591c846e0d4a65, // {DP:3 PP:1 MB:1 Iter:2}
	0xcb41c389db5a4325, // {DP:3 PP:1 MB:2 Iter:1}
	0xde2e2ff9fac0c3ed, // {DP:3 PP:1 MB:2 Iter:2}
	0x7a11649eeb249d65, // {DP:3 PP:1 MB:3 Iter:1}
	0x3246bed4ef6ecd05, // {DP:3 PP:1 MB:3 Iter:2}
	0x6f627102774de8cd, // {DP:3 PP:1 MB:4 Iter:1}
	0xeec72b3cb704809d, // {DP:3 PP:1 MB:4 Iter:2}
	0x55b0592df28c1e65, // {DP:3 PP:2 MB:1 Iter:1}
	0xd576b0d730251a1d, // {DP:3 PP:2 MB:1 Iter:2}
	0x818ccc71b8e7f47d, // {DP:3 PP:2 MB:2 Iter:1}
	0x2936662c8dc4c06e, // {DP:3 PP:2 MB:2 Iter:2}
	0x24494ce627f90a3d, // {DP:3 PP:2 MB:3 Iter:1}
	0x3f6af3bd0d994665, // {DP:3 PP:2 MB:3 Iter:2}
	0xd314a192fcb06941, // {DP:3 PP:2 MB:4 Iter:1}
	0x8ead5a6050e9ea0c, // {DP:3 PP:2 MB:4 Iter:2}
	0x34ae674f3d520be9, // {DP:3 PP:3 MB:1 Iter:1}
	0xf0e792a27c4ced79, // {DP:3 PP:3 MB:1 Iter:2}
	0xa043702e5272a365, // {DP:3 PP:3 MB:2 Iter:1}
	0x19e14f26bc5bcdf5, // {DP:3 PP:3 MB:2 Iter:2}
	0x55b0384109633ff1, // {DP:3 PP:3 MB:3 Iter:1}
	0xcbc77bfebc59cfba, // {DP:3 PP:3 MB:3 Iter:2}
	0x15af9378f07ddc79, // {DP:3 PP:3 MB:4 Iter:1}
	0xcb6c6b1d6da7a0ac, // {DP:3 PP:3 MB:4 Iter:2}
}

// TestSolveDigestsUnchanged is the bit-identity gate of the solver: every
// schedule it returns — placements, their order and the solve kind — over
// every small shape, technique toggle, memory cap, cost model, failure set
// and warm re-solve must hash to the pinned digest. A change that alters any
// schedule fails here and prints the new table; re-pin only when a schedule
// is meant to change.
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
	mismatch := len(got) != len(solveDigests)
	for i := 0; !mismatch && i < len(got); i++ {
		if got[i] != solveDigests[i] {
			t.Errorf("shape %+v: digest %#016x, pinned %#016x", shapes[i], got[i], solveDigests[i])
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
