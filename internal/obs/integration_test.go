package obs_test

import (
	"testing"

	"recycle/internal/engine"
	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// compiledProgram solves and compiles a real faulted Program — the same
// artifact both executors interpret — for integration-level obs tests.
func compiledProgram(t testing.TB, failures int) *schedule.Program {
	t.Helper()
	job, stats := engine.ShapeJob(3, 4, 6)
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 1})
	prog, err := eng.Program(failures)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestCriticalPathTilesRealProgram pins the headline invariant on a real
// compiled Program executed by the DES: the critical-path attribution must
// tile the recorded makespan exactly — on-path compute + waits == makespan
// and busy + idle == makespan for every worker — for both the fault-free
// and a faulted plan.
func TestCriticalPathTilesRealProgram(t *testing.T) {
	for _, failures := range []int{0, 1} {
		rec := obs.NewTrace()
		prog := compiledProgram(t, failures)
		ex, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: rec, TraceLabel: "des"})
		if err != nil {
			t.Fatal(err)
		}
		seg := rec.Segment("des")
		if seg == nil || seg.Len() != len(prog.Instrs) {
			t.Fatalf("failures=%d: recorded %v spans of %d instructions", failures, seg, len(prog.Instrs))
		}
		if seg.Makespan() != ex.Makespan {
			t.Fatalf("failures=%d: recorded makespan %d != execution makespan %d", failures, seg.Makespan(), ex.Makespan)
		}
		rep, err := obs.CriticalPath(seg)
		if err != nil {
			t.Fatalf("failures=%d: %v", failures, err)
		}
		if rep.OpSlots+rep.WaitSlots != ex.Makespan {
			t.Fatalf("failures=%d: attribution %d+%d != makespan %d", failures, rep.OpSlots, rep.WaitSlots, ex.Makespan)
		}
		busy := ex.WorkerBusy()
		for w, b := range rep.Busy {
			if b != busy[w] {
				t.Fatalf("failures=%d: recorded busy[%s]=%d != execution's %d", failures, w, b, busy[w])
			}
		}
	}
}

// TestRecorderObservesCutAndKill drives the failure-injection executor
// paths and checks the lifecycle stream: a FailAt death records a kill, a
// CutAt freeze records a cut with the completed/lost/blocked census.
func TestRecorderObservesCutAndKill(t *testing.T) {
	prog := compiledProgram(t, 0)
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cut := full.Makespan / 2
	victim := prog.Workers()[0]

	rec := obs.NewTrace()
	if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{
		CutAt:      cut,
		FailAt:     map[schedule.Worker]int64{victim: cut},
		Recorder:   rec,
		TraceLabel: "cut",
	}); err != nil {
		t.Fatal(err)
	}
	c := rec.Counters()
	if c["events.kill"] != 1 || c["events.cut"] != 1 {
		t.Fatalf("lifecycle counters = %v", c)
	}
	for _, e := range rec.Events() {
		if e.Kind == obs.EvKill && (!e.HasWorker || e.Worker != victim || e.At != cut) {
			t.Fatalf("kill event = %+v", e)
		}
		if e.Kind == obs.EvCut && len(e.Attrs) == 0 {
			t.Fatalf("cut event carries no census: %+v", e)
		}
	}
}

// TestNopRecorderAddsNoAllocations is the disabled-path acceptance check:
// executing a Program with the Nop recorder allocates exactly as much as
// executing it with no recorder at all — the guard keeps span construction
// off the disabled path entirely.
func TestNopRecorderAddsNoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the pooled walk allocates a varying count on both sides")
	}
	prog := compiledProgram(t, 1)
	bare := testing.AllocsPerRun(10, func() {
		if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	nop := testing.AllocsPerRun(10, func() {
		if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: obs.Nop{}}); err != nil {
			t.Fatal(err)
		}
	})
	if nop > bare {
		t.Fatalf("Nop recorder adds allocations: %v with vs %v without (%d instructions)",
			nop, bare, len(prog.Instrs))
	}
}

// BenchmarkExecuteProgram compares the interpreter's per-instruction cost
// with recording off (Nop) and on (Trace) — the number the "lock-cheap
// when enabled, free when disabled" claim is held to.
func BenchmarkExecuteProgram(b *testing.B) {
	prog := compiledProgram(b, 1)
	b.Run("nop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: obs.Nop{}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{Recorder: obs.NewTrace()}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
