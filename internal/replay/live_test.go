package replay

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// TestCutIsAProjection pins the cut rule (Chain.Ran) against the walk it
// replaced: over random shapes (coupled and decoupled, uniform and
// stage-scaled costs), cuts across the whole makespan, one or two victims,
// re-joins and swaps, chained to depth 3, the chain's projected cut equals
// a cut walk of the Program in flight — sim.ExecuteProgram resumed from
// the previous splice's Done under its Floors, the victims dying at the
// cut — field for field. Half the events carry release floors of their
// own, which differ from the Floors the next cut resumes under: only the
// re-plan reads them.
func TestCutIsAProjection(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 80
	}
	rng := rand.New(rand.NewSource(39))
	var cuts, chained, released, lost, blocked int
	for range trials {
		dp, pp, mb := 2+rng.Intn(4), 2+rng.Intn(3), 2+rng.Intn(6)
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
		c := Chain{Exec: full}
		var done map[int]int64
		var floors map[schedule.Worker]int64
		releasedBefore := false // the previous event carried release floors
		for depth := 1; depth <= 3; depth++ {
			p, end := c.Exec.Program, c.Exec.Makespan
			if c.Cut >= end {
				break
			}
			at := c.Cut + 1 + rng.Int63n(end-c.Cut) // up to the makespan itself
			fail, rejoin := drawEvent(rng, dp, pp, p.Failed)
			opt := sim.ProgramOptions{CutAt: at, Done: done, ReleaseAt: floors}
			for _, w := range fail {
				if opt.FailAt == nil {
					opt.FailAt = make(map[schedule.Worker]int64)
				}
				opt.FailAt[w] = at
			}
			want, err := sim.ExecuteProgram(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			got := c.Project(at, fail)
			what := fmt.Sprintf("DP%d PP%d MB%d depth %d cut %d after %d fail %v rejoin %v", dp, pp, mb, depth, at, c.Cut, fail, rejoin)
			for i := range p.Instrs {
				if got.Start[i] != want.Start[i] || got.End[i] != want.End[i] {
					t.Fatalf("%s: instruction %d (%s) projects to [%d,%d], the cut walk runs it [%d,%d]",
						what, i, p.Op(i), got.Start[i], got.End[i], want.Start[i], want.End[i])
				}
			}
			if got.Completed != want.Completed || got.Makespan != want.Makespan ||
				!reflect.DeepEqual(got.Lost, want.Lost) || !reflect.DeepEqual(got.Blocked, want.Blocked) {
				t.Fatalf("%s: projection completed %d, makespan %d, lost %v, blocked %v; the cut walk %d, %d, %v, %v",
					what, got.Completed, got.Makespan, got.Lost, got.Blocked, want.Completed, want.Makespan, want.Lost, want.Blocked)
			}
			cuts++
			lost += len(got.Lost)
			blocked += len(got.Blocked)
			if depth > 1 {
				chained++
			}
			if releasedBefore {
				released++
			}
			if fail == nil && rejoin == nil {
				break
			}
			var release map[schedule.Worker]int64
			if rng.Intn(2) == 0 {
				release = make(map[schedule.Worker]int64)
				for _, w := range p.Workers() {
					release[w] = at + int64(rng.Intn(5))
				}
			}
			spl, err := c.Advance(at, fail, rejoin, release)
			if err != nil {
				break // a rejected event ends the chain
			}
			if c.Exec != spl.Exec || c.Cut != at {
				t.Fatalf("%s: Advance did not step the chain onto its splice", what)
			}
			done, floors, releasedBefore = spl.Done, spl.Floors, release != nil
		}
	}
	t.Logf("%d cuts (%d chained, %d after a release draw), %d lost and %d blocked instructions", cuts, chained, released, lost, blocked)
	if cuts < trials || chained < trials/4 || released < trials/8 || lost == 0 || blocked == 0 {
		t.Fatalf("the draws reach too little: %d cuts, %d chained, %d released, %d lost, %d blocked", cuts, chained, released, lost, blocked)
	}
}
