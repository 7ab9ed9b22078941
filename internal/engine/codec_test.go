package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"recycle/internal/schedule"
)

// testPlanner builds a planner over a small unit-cost job.
func testPlanner(t *testing.T) *Planner {
	t.Helper()
	job, stats := ShapeJob(4, 4, 8)
	p := NewPlanner(job, stats)
	p.UnrollIterations = 2
	return p
}

// concreteFailures is a failure set that normalization would never pick.
func concreteFailures() []schedule.Worker {
	return []schedule.Worker{{Stage: 0, Pipeline: 1}, {Stage: 1, Pipeline: 2}}
}

// TestEncodeDecodeRoundTrip checks the headline codec property: a plan
// round-trips through bytes into a structurally identical plan — schedule
// placements, failed sets, assignment, period and planning latency.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := testPlanner(t)
	for f := 0; f <= 3; f++ {
		plan, err := p.PlanFor(f)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodePlan(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, got) {
			t.Errorf("f=%d: decoded plan differs from original", f)
		}
	}
}

// TestEncodeDecodeConcreteRoundTrip covers plans for concrete failure
// sets, whose failed workers are not the normalized ones.
func TestEncodeDecodeConcreteRoundTrip(t *testing.T) {
	p := testPlanner(t)
	plan, err := p.PlanConcrete(concreteFailures())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, got) {
		t.Error("decoded concrete plan differs from original")
	}
}

// TestEncodeRejectsEmptyPlan checks the encoder's guard.
func TestEncodeRejectsEmptyPlan(t *testing.T) {
	if _, err := EncodePlan(nil); err == nil {
		t.Error("encoding a nil plan should fail")
	}
	if _, err := EncodePlan(&Plan{}); err == nil {
		t.Error("encoding a schedule-less plan should fail")
	}
}

// TestDecodeRejectsBadInput checks version and corruption handling.
func TestDecodeRejectsBadInput(t *testing.T) {
	plan, err := testPlanner(t).PlanFor(1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan([]byte("not a plan")); err == nil {
		t.Error("garbage bytes should not decode")
	}
	if _, err := DecodePlan([]byte(`{"Version":1}`)); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Errorf("v1 JSON bytes: %v", err)
	}
	future := bytes.Clone(data)
	future[len(wireMagic)+1] = 99
	if _, err := DecodePlan(future); err == nil || !strings.Contains(err.Error(), "codec version") {
		t.Errorf("unknown codec version: %v", err)
	}
	hollow := writer{}
	hollow.header(kindPlan, CodecVersion, plan.Schedule.Shape, plan.Schedule.Durations, nil)
	for range 6 { // failures, period, plan time, no assignment, no failed list, no placements
		hollow.int(0)
	}
	if _, err := DecodePlan(hollow.b); err == nil {
		t.Error("a plan with no placements should not decode")
	}
	if _, err := DecodePlan(append(bytes.Clone(data), 0)); err == nil {
		t.Error("trailing bytes should not decode")
	}
	// A placement outside the schedule's shape must not decode either.
	ps := append([]schedule.Placement(nil), plan.Schedule.Placements...)
	ps[0].Op.Stage = plan.Schedule.Shape.PP
	outside := planContent(plan)
	outside.Schedule = schedule.New(plan.Schedule.Shape, plan.Schedule.Durations, plan.Schedule.Failed, ps)
	tampered, err := EncodePlan(outside)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan(tampered); err == nil {
		t.Error("a placement outside the shape should not decode")
	}
}

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
