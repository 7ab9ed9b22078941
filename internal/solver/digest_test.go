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
// is solved under: each combination of the Decoupled and Staggered toggles
// on unit slots without a cap, with one cap for every stage and with
// per-stage caps, then on skewed durations with comm latency, homogeneous
// and with a 2× straggler through Costs.
func digestInputs(sh schedule.Shape) []Input {
	skewed := schedule.Durations{F: 2, BInput: 3, BWeight: 1, Opt: 2, Comm: 1}
	slow := schedule.Worker{Stage: sh.PP - 1, Pipeline: 0}
	straggler := schedule.NewCostTable(sh, func(w schedule.Worker, t schedule.OpType) int64 {
		if w == slow && t != schedule.Optimizer {
			return 2 * skewed.Of(t)
		}
		return skewed.Of(t)
	})
	even, perStage := make([]int, sh.PP), make([]int, sh.PP)
	for i := range perStage {
		even[i], perStage[i] = 2, 1+sh.PP-i
	}
	var out []Input
	for toggles := 0; toggles < 4; toggles++ {
		base := Input{Shape: sh, Durations: schedule.UnitSlots, Decoupled: toggles&1 != 0, Staggered: toggles&2 != 0}
		capped, staged := base, base
		capped.MemCapPerStage = even
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

// shapeDigest solves every configuration and failure set of the shape, and
// checks every schedule it solves against the walk of its Program (lead).
func shapeDigest(sh schedule.Shape, lead *walkLead) (digest uint64, solves int) {
	h := fnv.New64a()
	for _, failed := range digestFailureSets(sh) {
		for _, in := range digestInputs(sh) {
			in.Failed = failed
			s, err := Solve(in)
			hashPlacements(h, s, err)
			solves++
			if err == nil {
				lead.check(s)
			}
		}
	}
	return h.Sum64(), solves
}

// walkLead pins how a solved Schedule relates to the walk that times its
// compiled Program (Program.Plain), which is what every executor follows:
// the walk starts each instruction no later than the solver placed it, and
// finishes no later than the schedule's last End. It may start one earlier
// (it waits on dependencies alone, where the solver also waited on slots it
// had not yet filled), so the Schedule is a bound on the walk, not a view
// of it. schedules and instrs count what was checked, earlier the
// instructions the walk starts before their placement; err holds the first
// violation.
type walkLead struct {
	schedules, instrs, earlier int
	err                        error
}

func (l *walkLead) check(s *schedule.Schedule) {
	if l.err != nil {
		return
	}
	prog, err := schedule.Compile(s)
	if err != nil {
		l.err = fmt.Errorf("shape %+v failing %v: %w", s.Shape, s.Failed, err)
		return
	}
	start, _, makespan, _ := prog.Plain()
	var last int64
	for i, pl := range s.Placements {
		switch {
		case start[i] > pl.Start:
			l.err = fmt.Errorf("shape %+v failing %v: the walk starts %s at %d, after its placement at %d", s.Shape, s.Failed, pl.Op, start[i], pl.Start)
			return
		case start[i] < pl.Start:
			l.earlier++
		}
		last = max(last, pl.End)
	}
	l.schedules++
	l.instrs += len(s.Placements)
	if makespan > last {
		l.err = fmt.Errorf("shape %+v failing %v: the walk ends at %d, after the schedule's last End %d", s.Shape, s.Failed, makespan, last)
	}
}

// scratchDigests pins every schedule shapeDigest hashes: one FNV-64a digest
// per shape of digestShapes, in order.
var scratchDigests = []uint64{
	0x80f19d8aaddf9dd5, // {DP:1 PP:1 MB:1 Iter:1}
	0x2152b540bdfe0d75, // {DP:1 PP:1 MB:1 Iter:2}
	0x0d08248a665891d5, // {DP:1 PP:1 MB:2 Iter:1}
	0x14d708bb8f8783b5, // {DP:1 PP:1 MB:2 Iter:2}
	0xc7351c3e5be74a75, // {DP:1 PP:1 MB:3 Iter:1}
	0xb0721e9968181675, // {DP:1 PP:1 MB:3 Iter:2}
	0xf92d8f2dab3d7215, // {DP:1 PP:1 MB:4 Iter:1}
	0x08d51c92ba2b70b5, // {DP:1 PP:1 MB:4 Iter:2}
	0x220146e70c1143b5, // {DP:1 PP:2 MB:1 Iter:1}
	0x60173ee21f9a7a35, // {DP:1 PP:2 MB:1 Iter:2}
	0x48a72b07a37b3795, // {DP:1 PP:2 MB:2 Iter:1}
	0x8e9ae4483d1fd595, // {DP:1 PP:2 MB:2 Iter:2}
	0xf53e3f73e7c9ed75, // {DP:1 PP:2 MB:3 Iter:1}
	0x5d1f88f2cc3a2dd5, // {DP:1 PP:2 MB:3 Iter:2}
	0xfd527ffe31470715, // {DP:1 PP:2 MB:4 Iter:1}
	0xfa265e046832ec15, // {DP:1 PP:2 MB:4 Iter:2}
	0xe6a18c3cd664dc7d, // {DP:1 PP:3 MB:1 Iter:1}
	0xa0259b852e6c88fd, // {DP:1 PP:3 MB:1 Iter:2}
	0x22ef6e96fa8d70dd, // {DP:1 PP:3 MB:2 Iter:1}
	0xcab7ce607ee8d1dd, // {DP:1 PP:3 MB:2 Iter:2}
	0x44ebac48d045f35d, // {DP:1 PP:3 MB:3 Iter:1}
	0x17a432277d98547d, // {DP:1 PP:3 MB:3 Iter:2}
	0x4d0e8e0f052a599d, // {DP:1 PP:3 MB:4 Iter:1}
	0x57d7ac15d2ac1c7d, // {DP:1 PP:3 MB:4 Iter:2}
	0xac18b6096170def5, // {DP:2 PP:1 MB:1 Iter:1}
	0xc1fee7b89040abb5, // {DP:2 PP:1 MB:1 Iter:2}
	0x0328e6e1c797cd15, // {DP:2 PP:1 MB:2 Iter:1}
	0xe11c10ec1ed35935, // {DP:2 PP:1 MB:2 Iter:2}
	0x126ce0fd60748d15, // {DP:2 PP:1 MB:3 Iter:1}
	0x56f844323094c475, // {DP:2 PP:1 MB:3 Iter:2}
	0x3ffae6cbced7ee35, // {DP:2 PP:1 MB:4 Iter:1}
	0x256306161d04f5f5, // {DP:2 PP:1 MB:4 Iter:2}
	0x9fed353d0954e771, // {DP:2 PP:2 MB:1 Iter:1}
	0x182461ce72f6303d, // {DP:2 PP:2 MB:1 Iter:2}
	0x6190bdcdfc793731, // {DP:2 PP:2 MB:2 Iter:1}
	0x013b9a0b22d79d15, // {DP:2 PP:2 MB:2 Iter:2}
	0x0a29888d46b2650d, // {DP:2 PP:2 MB:3 Iter:1}
	0x027195dff39e2a45, // {DP:2 PP:2 MB:3 Iter:2}
	0x38677a47fd79b505, // {DP:2 PP:2 MB:4 Iter:1}
	0x2e3a9da466c613ad, // {DP:2 PP:2 MB:4 Iter:2}
	0xe9793a3e2f05e699, // {DP:2 PP:3 MB:1 Iter:1}
	0x61b3e8b7d6618811, // {DP:2 PP:3 MB:1 Iter:2}
	0xa316760c76b9d115, // {DP:2 PP:3 MB:2 Iter:1}
	0x0367bcbecc1b7671, // {DP:2 PP:3 MB:2 Iter:2}
	0x4050ba325af787b1, // {DP:2 PP:3 MB:3 Iter:1}
	0x46b5511bb23462ad, // {DP:2 PP:3 MB:3 Iter:2}
	0xd0cd798a667599e1, // {DP:2 PP:3 MB:4 Iter:1}
	0xd42eb1f672c3420d, // {DP:2 PP:3 MB:4 Iter:2}
	0x3d6a8996b9c13ec5, // {DP:3 PP:1 MB:1 Iter:1}
	0x87d24f7aa0a2eba5, // {DP:3 PP:1 MB:1 Iter:2}
	0x5428a5e2818d66a5, // {DP:3 PP:1 MB:2 Iter:1}
	0x4ea7f40781b4f925, // {DP:3 PP:1 MB:2 Iter:2}
	0xa266911316b12965, // {DP:3 PP:1 MB:3 Iter:1}
	0xabe5061c8bcc5665, // {DP:3 PP:1 MB:3 Iter:2}
	0x167046ab7f9a1205, // {DP:3 PP:1 MB:4 Iter:1}
	0xb5ff1c3df6b97205, // {DP:3 PP:1 MB:4 Iter:2}
	0x26129305c6b04779, // {DP:3 PP:2 MB:1 Iter:1}
	0x0cb5eb0b8e844f55, // {DP:3 PP:2 MB:1 Iter:2}
	0xd06ca6edd0c940b5, // {DP:3 PP:2 MB:2 Iter:1}
	0xf5b0832376068c2f, // {DP:3 PP:2 MB:2 Iter:2}
	0x90d8808f949dd82f, // {DP:3 PP:2 MB:3 Iter:1}
	0x7663d90de62180e7, // {DP:3 PP:2 MB:3 Iter:2}
	0xdde80614293ca44f, // {DP:3 PP:2 MB:4 Iter:1}
	0xc046fa433eaa6657, // {DP:3 PP:2 MB:4 Iter:2}
	0xf77dba7017809fd9, // {DP:3 PP:3 MB:1 Iter:1}
	0x07532fe225927261, // {DP:3 PP:3 MB:1 Iter:2}
	0x96e699275de1fa59, // {DP:3 PP:3 MB:2 Iter:1}
	0x4a13bebe04f136d3, // {DP:3 PP:3 MB:2 Iter:2}
	0x09eac064e2d66a4b, // {DP:3 PP:3 MB:3 Iter:1}
	0x11343bc53fac1eb1, // {DP:3 PP:3 MB:3 Iter:2}
	0xcd7599f61de4226d, // {DP:3 PP:3 MB:4 Iter:1}
	0x4ba03509d60d650e, // {DP:3 PP:3 MB:4 Iter:2}
}

// largeDigests pins the placements of the solves whose per-worker priority
// streams span several 64-bit words, which no shape of digestShapes reaches.
var largeDigests = []struct {
	name   string
	in     func() Input
	digest uint64
}{
	{"replayJob", replayJob, 0x2486de0971257ae1},
	{"largeJob", largeJob, 0xfac432fe4356641e},
}

// TestSolveDigestsUnchanged is the bit-identity gate of the solver: every
// schedule Solve returns — its placements and their order — over every
// small shape, technique toggle, memory cap, cost model and failure set,
// and over the large jobs of largeDigests, must hash to the pinned digest. A change that alters any schedule fails
// here and prints the new table; re-pin only when a schedule is meant to
// change.
func TestSolveDigestsUnchanged(t *testing.T) {
	if raceEnabled {
		t.Skip("a single-goroutine sweep: the race detector finds nothing here and multiplies its time tenfold")
	}
	for _, l := range largeDigests {
		h := fnv.New64a()
		s, err := Solve(l.in())
		hashPlacements(h, s, err)
		if d := h.Sum64(); d != l.digest {
			t.Errorf("%s: digest %#016x, pinned %#016x", l.name, d, l.digest)
		}
	}
	shapes := digestShapes()
	got := make([]uint64, len(shapes))
	total := 0
	var lead walkLead
	for i, sh := range shapes {
		var n int
		got[i], n = shapeDigest(sh, &lead)
		total += n
	}
	if lead.err != nil {
		t.Errorf("a solved schedule bounds the walk of its Program no more: %v", lead.err)
	} else {
		t.Logf("%d schedules, %d instructions: the walk starts %d earlier than placed", lead.schedules, lead.instrs, lead.earlier)
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
