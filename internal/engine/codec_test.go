package engine

import (
	"runtime"
	"slices"
	"testing"

	"recycle/internal/schedule"
)

// TestDecodeAllocationBudget keeps reflection out of the codec: at the live
// shape a decode allocates the Program's slabs and maps and little else, and
// an encoded instruction costs a handful of bytes. The JSON codec this one
// replaced read 2.0 allocations and 151 bytes per instruction.
func TestDecodeAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random")
	}
	job, stats := ShapeJob(4, 4, 8)
	prog, err := New(job, stats, Options{UnrollIterations: 1}).ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	instrs := float64(len(prog.Instrs))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeProgram(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d instructions: %.0f allocations per decode (%.3f per instruction), %d bytes (%.1f per instruction)",
		len(prog.Instrs), allocs, allocs/instrs, len(data), float64(len(data))/instrs)
	if allocs > 0.1*instrs {
		t.Errorf("DecodeProgram allocates %.2f objects per instruction, budget 0.1", allocs/instrs)
	}
	if float64(len(data)) > 20*instrs {
		t.Errorf("an encoded Program costs %.1f bytes per instruction, budget 20", float64(len(data))/instrs)
	}
}

// cyclicEncoding encodes a hand-built Program whose two instructions wait
// on each other: structurally sound, so only a walk can reject it.
func cyclicEncoding(tb testing.TB) []byte {
	b := schedule.NewProgramBuilder(schedule.Shape{DP: 1, PP: 1, MB: 1, Iter: 1}, schedule.UnitSlots, nil, 2, 2)
	b.Instr(schedule.Op{Type: schedule.F}, 0, false)
	b.Dep(1, schedule.DepLocal)
	b.Instr(schedule.Op{Type: schedule.B}, 0, false)
	b.Dep(0, schedule.DepLocal)
	b.Stream(schedule.Worker{})
	b.Next(0)
	b.Next(1)
	cyclic, err := b.Build()
	if err != nil {
		tb.Fatalf("Build rejected a structurally sound program: %v", err)
	}
	data, err := EncodeProgram(cyclic)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestDecodeProvesProgramsRun decodes a cyclic Program (cyclicEncoding):
// only the walk decoding ends on can reject it, with the text Validate
// gives. A Program that runs comes back with its plain timeline already
// walked, so its first Plain allocates nothing and walks nothing.
func TestDecodeProvesProgramsRun(t *testing.T) {
	data := cyclicEncoding(t)
	const want = "engine: decoded program: schedule: program deadlocks: 2 of 2 instructions are on a dependency cycle"
	if _, err := DecodeProgram(data); err == nil || err.Error() != want {
		t.Fatalf("decoding a cyclic program returned %v, want %s", err, want)
	}

	job, stats := ShapeJob(2, 2, 4)
	prog, err := New(job, stats, Options{UnrollIterations: 1}).ProgramFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if data, err = EncodeProgram(prog); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		return // the race detector allocates on its own
	}
	// The fewest allocations over three fresh decodes: a first Plain that
	// walks allocates its slab every time, while a stray allocation by
	// another goroutine is unlikely to land in all three readings.
	var back *schedule.Program
	least := ^uint64(0)
	for range 3 {
		if back, err = DecodeProgram(data); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		back.Plain()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 0 {
		t.Errorf("a decoded Program's first Plain allocates %d times: it walked again", least)
	}
	start, _, makespan, ran := back.Plain()
	wantStart, _, wantMakespan, wantRan := prog.Plain()
	if !slices.Equal(start, wantStart) || makespan != wantMakespan || ran != wantRan {
		t.Errorf("the decoded plain timeline (makespan %d, %d ran) is not the source's (makespan %d, %d ran)", makespan, ran, wantMakespan, wantRan)
	}
}
