package schedule

import "testing"

// TestCompileStampsDurations checks that every compiled instruction
// carries its placement's modeled span and that DurOf serves it.
func TestCompileStampsDurations(t *testing.T) {
	d := Durations{F: 2, BInput: 3, BWeight: 1, Opt: 4, Comm: 1}
	s := FaultFree1F1B(Shape{DP: 2, PP: 2, MB: 3, Iter: 1}, d)
	prog, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog.Instrs {
		pl, ok := s.At(prog.Op(i))
		if !ok {
			t.Fatalf("instruction %d (%s) has no placement", i, prog.Op(i))
		}
		if got, want := prog.Instrs[i].Dur, pl.End-pl.Start; got != want {
			t.Fatalf("instruction %d stamped %d, placement span %d", i, got, want)
		}
		if got := prog.DurOf(i); got != pl.End-pl.Start {
			t.Fatalf("DurOf(%d) = %d, want %d", i, got, pl.End-pl.Start)
		}
	}
}

// TestDurOfFallsBackForHandAssembledPrograms pins the zero-Dur fallback:
// programs built without Compile (tests, fuzzing) keep reading the
// homogeneous Durations.
func TestDurOfFallsBackForHandAssembledPrograms(t *testing.T) {
	b := NewProgramBuilder(Shape{DP: 1, PP: 1, MB: 1, Iter: 1}, Durations{F: 7}, nil, 1, 0)
	b.Instr(Op{Type: F}, 0, false)
	b.Stream(Worker{})
	b.Next(0)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.DurOf(0); got != 7 {
		t.Fatalf("DurOf fallback = %d, want 7", got)
	}
}
