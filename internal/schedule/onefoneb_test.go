package schedule

import (
	"testing"
	"testing/quick"
)

// TestFig3aFaultFreeMakespan reproduces Figure 3a: with 3 data-parallel
// pipelines, 4 stages, 6 micro-batches and unit slots (TF=1, TB=2), the
// fault-free 1F1B iteration spans exactly 27 slots.
func TestFig3aFaultFreeMakespan(t *testing.T) {
	s := FaultFree1F1B(Shape{DP: 3, PP: 4, MB: 6, Iter: 1}, UnitSlots)
	if got := s.ComputeMakespan(0); got != 27 {
		t.Fatalf("fault-free 1F1B makespan = %d slots, want 27 (Fig 3a)", got)
	}
}

// TestFig3aBubbleCount reproduces the bubble count of Figure 3a: each
// worker idles (PP-1)*(TF+TB) = 9 slots, so the 12-worker job has 108
// bubble slots per iteration.
func TestFig3aBubbleCount(t *testing.T) {
	s := FaultFree1F1B(Shape{DP: 3, PP: 4, MB: 6, Iter: 1}, UnitSlots)
	if got := s.BubbleSlots(0); got != 9*12 {
		t.Fatalf("bubble slots = %d, want %d", got, 9*12)
	}
}

// TestFaultFreeMakespanClosedForm checks the analytic makespan
// (PP-1)*(F+B) + MB*(F+B) across shapes.
func TestFaultFreeMakespanClosedForm(t *testing.T) {
	for _, tc := range []Shape{
		{DP: 1, PP: 2, MB: 2, Iter: 1},
		{DP: 2, PP: 2, MB: 8, Iter: 1},
		{DP: 3, PP: 4, MB: 6, Iter: 1},
		{DP: 4, PP: 8, MB: 16, Iter: 1},
		{DP: 2, PP: 6, MB: 6, Iter: 1},
	} {
		s := FaultFree1F1B(tc, UnitSlots)
		want := int64(tc.PP-1)*3 + int64(tc.MB)*3
		if got := s.ComputeMakespan(0); got != want {
			t.Errorf("shape %+v: makespan = %d, want %d", tc, got, want)
		}
	}
}

// TestFaultFreeValidates runs the MILP constraint checker over fault-free
// schedules, including the per-stage 1F1B memory cap of PP-i in-flight
// activations (stage 0 holds the most, Fig 3a's "Ma" row).
func TestFaultFreeValidates(t *testing.T) {
	shape := Shape{DP: 3, PP: 4, MB: 6, Iter: 2}
	s := FaultFree1F1B(shape, UnitSlots)
	if err := Validate(s, ValidateConfig{MemCap: shape.PP}); err != nil {
		t.Fatalf("fault-free schedule failed validation: %v", err)
	}
}

// TestFaultFreePeakActivations checks the memory imbalance the paper
// exploits (§3.2): stage i of a 1F1B pipeline holds at most PP-i in-flight
// activations, so later stages have surplus memory.
func TestFaultFreePeakActivations(t *testing.T) {
	shape := Shape{DP: 1, PP: 4, MB: 6, Iter: 1}
	p, err := Compile(FaultFree1F1B(shape, UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	peaks := p.PeakActivations()
	for i := 0; i < shape.PP; i++ {
		w := Worker{Stage: i, Pipeline: 0}
		if got, want := peaks[w], shape.PP-i; got != want {
			t.Errorf("stage %d peak activations = %d, want %d", i, got, want)
		}
	}
}

// TestFaultFreeSteadyPeriod checks that unrolled fault-free iterations
// repeat with period = compute makespan + optimizer slot.
func TestFaultFreeSteadyPeriod(t *testing.T) {
	s := FaultFree1F1B(Shape{DP: 3, PP: 4, MB: 6, Iter: 3}, UnitSlots)
	if got := s.SteadyPeriod(); got != 28 {
		t.Fatalf("steady period = %d, want 28 (27 compute + 1 optimizer)", got)
	}
}

// TestOneFOneBOrderShape property-checks the canonical order: every
// micro-batch appears exactly once as F and once as B, warm-up length is
// min(MB, PP-stage), and backward j never precedes forward j.
func TestOneFOneBOrderShape(t *testing.T) {
	check := func(ppRaw, mbRaw, stageRaw uint8) bool {
		pp := int(ppRaw%8) + 1
		mb := int(mbRaw%12) + pp // mb >= pp
		stage := int(stageRaw) % pp
		order := OneFOneBOrder(pp, mb, stage)
		if len(order) != 2*mb {
			return false
		}
		fSeen := make([]bool, mb)
		bSeen := make([]bool, mb)
		warm := 0
		for idx, ref := range order {
			switch ref.Type {
			case F:
				if fSeen[ref.MB] {
					return false
				}
				fSeen[ref.MB] = true
				if idx == warm {
					warm++
				}
			case B:
				if bSeen[ref.MB] || !fSeen[ref.MB] {
					return false
				}
				bSeen[ref.MB] = true
			default:
				return false
			}
		}
		wantWarm := pp - stage
		if wantWarm > mb {
			wantWarm = mb
		}
		return warm == wantWarm
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesOverlap mutates a valid schedule to create an overlap
// and checks Validate rejects it.
func TestValidateCatchesOverlap(t *testing.T) {
	shape := Shape{DP: 1, PP: 2, MB: 2, Iter: 1}
	s := FaultFree1F1B(shape, UnitSlots)
	ps := append([]Placement(nil), s.Placements...)
	// Shift the second op of worker W0_0 to overlap the first.
	w := Worker{Stage: 0, Pipeline: 0}
	count := 0
	for i := range ps {
		if ps[i].Op.Worker() == w && ps[i].Op.Type != Optimizer {
			count++
			if count == 2 {
				width := ps[i].End - ps[i].Start
				ps[i].Start = 0
				ps[i].End = width
			}
		}
	}
	bad := New(shape, UnitSlots, nil, ps)
	if err := Validate(bad, ValidateConfig{}); err == nil {
		t.Fatal("Validate accepted an overlapping schedule")
	}
}

// TestValidateCatchesMissingOp removes one op and checks completeness
// detection (the MILP's Σ S = 1 constraint).
func TestValidateCatchesMissingOp(t *testing.T) {
	shape := Shape{DP: 2, PP: 2, MB: 2, Iter: 1}
	s := FaultFree1F1B(shape, UnitSlots)
	for drop := 0; drop < 3; drop++ { // drop an F, then a B
		var ps []Placement
		skipped := false
		for _, p := range s.Placements {
			if !skipped && p.Op.Type != Optimizer {
				skipped = true
				continue
			}
			ps = append(ps, p)
		}
		bad := New(shape, UnitSlots, nil, ps)
		if err := Validate(bad, ValidateConfig{}); err == nil {
			t.Fatal("Validate accepted a schedule with a missing op")
		}
	}
}

// TestRenderContainsWorkers smoke-tests the ASCII renderer.
func TestRenderContainsWorkers(t *testing.T) {
	s := FaultFree1F1B(Shape{DP: 2, PP: 2, MB: 2, Iter: 1}, UnitSlots)
	out := Render(s, 4)
	for _, want := range []string{"W0_0", "W0_1", "W1_0", "W1_1", "OPT"} {
		if !contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
