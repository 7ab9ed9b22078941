package planstore

import "testing"

// TestPutGet checks the basic path with all replicas healthy.
func TestPutGet(t *testing.T) {
	s := New(3)
	if err := s.Put("plan/1", []byte("a")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("plan/1")
	if err != nil || !ok || string(got) != "a" {
		t.Fatalf("get: %q %v %v", got, ok, err)
	}
	if _, ok, _ := s.Get("missing"); ok {
		t.Fatal("missing key reported present")
	}
	if err := s.Put("plan/0", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if keys := s.Keys(); len(keys) != 2 || keys[0] != "plan/0" || keys[1] != "plan/1" {
		t.Fatalf("keys %q, want [plan/0 plan/1]", keys)
	}
}

// TestSurvivesMinorityFailure checks quorum semantics: one replica of
// three can die without losing committed plans.
func TestSurvivesMinorityFailure(t *testing.T) {
	s := New(3)
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	s.FailReplica(0)
	got, ok, err := s.Get("k")
	if err != nil || !ok || string(got) != "v1" {
		t.Fatalf("read after minority failure: %q %v %v", got, ok, err)
	}
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatalf("write after minority failure: %v", err)
	}
	// The failed replica recovers and re-syncs; a later majority read sees v2.
	s.RecoverReplica(0)
	s.FailReplica(1)
	s.FailReplica(2)
	if _, _, err := s.Get("k"); err == nil {
		t.Fatal("read without quorum should fail")
	}
	s.RecoverReplica(1)
	got, ok, err = s.Get("k")
	if err != nil || !ok || string(got) != "v2" {
		t.Fatalf("read after recovery: %q %v %v", got, ok, err)
	}
}

// TestMajorityFailureBlocksWrites checks writes fail without quorum.
func TestMajorityFailureBlocksWrites(t *testing.T) {
	s := New(3)
	s.FailReplica(0)
	s.FailReplica(1)
	if err := s.Put("k", []byte("v")); err == nil {
		t.Fatal("write without quorum should fail")
	}
}
