package engine

import (
	"testing"
	"testing/quick"

	"recycle/internal/schedule"
)

// TestProgramCachedAlongsidePlan checks the compiled-Program cache: the
// first fetch compiles, repeats are served from cache, and every consumer
// of one plan shares one Program.
func TestProgramCachedAlongsidePlan(t *testing.T) {
	job, stats := ShapeJob(3, 4, 6)
	eng := New(job, stats, Options{UnrollIterations: 1})
	failed := map[schedule.Worker]bool{{Stage: 2, Pipeline: 1}: true}

	p1, err := eng.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.ProgramFor(failed)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeat ProgramFor did not return the cached Program")
	}
	m := eng.Metrics()
	if m.Compiles != 1 {
		t.Fatalf("%d compiles for one schedule, want 1", m.Compiles)
	}
	if m.ProgramHits == 0 {
		t.Fatal("repeat fetch not counted as a program-cache hit")
	}

	// The plan-level accessor reaches the same cached artifact.
	plan, err := eng.PlanConcrete([]schedule.Worker{{Stage: 2, Pipeline: 1}})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := eng.CompiledProgram(plan)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatal("CompiledProgram did not share the ProgramFor cache")
	}
}

// TestProgramForHealthyFleet checks the n=0 path and the normalized
// Program accessor.
func TestProgramForHealthyFleet(t *testing.T) {
	job, stats := ShapeJob(2, 2, 4)
	eng := New(job, stats, Options{UnrollIterations: 1})
	viaFor, err := eng.ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	viaN, err := eng.Program(0)
	if err != nil {
		t.Fatal(err)
	}
	if viaFor != viaN {
		t.Fatal("ProgramFor(nil) and Program(0) compiled distinct artifacts for one plan")
	}
}

// TestSolvedProgramsSoundAcrossFailureCounts is the faulted counterpart of
// the schedule package's property test: every Program compiled from a
// solved adaptive plan — any failure count the job tolerates, decoupled
// and staggered techniques on — validates as deadlock-free and
// edge-consistent.
func TestSolvedProgramsSoundAcrossFailureCounts(t *testing.T) {
	job, stats := ShapeJob(3, 3, 6)
	eng := New(job, stats, Options{UnrollIterations: 2})
	prop := func(nRaw uint8) bool {
		n := int(nRaw) % 5 // up to PP*(DP-1)-1 failures
		prog, err := eng.Program(n)
		if err != nil {
			t.Logf("n=%d: %v", n, err)
			return false
		}
		if err := prog.Validate(); err != nil {
			t.Logf("n=%d: %v", n, err)
			return false
		}
		for _, w := range prog.Workers() {
			if prog.Failed[w] {
				t.Logf("n=%d: failed worker %s has a stream", n, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
