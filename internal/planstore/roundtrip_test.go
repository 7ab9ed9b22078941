package planstore_test

import (
	"reflect"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/planstore"
)

// TestEncodedPlanSurvivesReplicaFailure is the end-to-end durability check
// of the paper's plan-store design (§4.2): an adaptive plan encoded with
// the canonical codec is replicated, a replica fails and recovers (and the
// write majority shifts), and the plan read back decodes to a structurally
// identical plan.
func TestEncodedPlanSurvivesReplicaFailure(t *testing.T) {
	job, stats := engine.ShapeJob(3, 4, 6)
	planner := engine.NewPlanner(job, stats)
	planner.UnrollIterations = 2
	plan, err := planner.PlanFor(1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := engine.EncodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}

	s := planstore.New(3)
	const key = "plans/test/n/1"
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}

	// One replica dies; the plan must remain readable on the majority.
	s.FailReplica(0)
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("read after replica failure: ok=%v err=%v", ok, err)
	}
	decoded, err := engine.DecodePlan(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, decoded) {
		t.Fatal("plan read during replica failure differs from the original")
	}

	// The replica recovers and re-syncs; after the other two fail, the
	// recovered replica plus one peer must still serve the identical plan.
	s.RecoverReplica(0)
	s.FailReplica(1)
	got, ok, err = s.Get(key)
	if err != nil || !ok {
		t.Fatalf("read after recovery: ok=%v err=%v", ok, err)
	}
	decoded, err = engine.DecodePlan(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, decoded) {
		t.Fatal("plan read after fail/recover differs from the original")
	}
}
