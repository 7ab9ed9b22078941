package planstore_test

import (
	"bytes"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/planstore"
)

// TestEncodedProgramSurvivesReplicaFailure is the end-to-end durability
// check of the paper's plan-store design (§4.2): the compiled Program of an
// adaptive plan, encoded with the canonical codec, is replicated, a replica
// fails and recovers (and the write majority shifts), and the Program read
// back decodes and re-encodes to the identical bytes.
func TestEncodedProgramSurvivesReplicaFailure(t *testing.T) {
	job, stats := engine.ShapeJob(3, 4, 6)
	prog, err := engine.New(job, stats, engine.Options{UnrollIterations: 2}).Program(1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := engine.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}

	s := planstore.New(3)
	const key = "programs/test/3.2"
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	readBack := func(when string) {
		t.Helper()
		got, ok, err := s.Get(key)
		if err != nil || !ok {
			t.Fatalf("read %s: ok=%v err=%v", when, ok, err)
		}
		decoded, err := engine.DecodeProgram(got)
		if err != nil {
			t.Fatal(err)
		}
		if re, err := engine.EncodeProgram(decoded); err != nil || !bytes.Equal(re, data) {
			t.Fatalf("Program read %s differs from the original (%v)", when, err)
		}
	}

	// One replica dies; the Program must remain readable on the majority.
	s.FailReplica(0)
	readBack("after replica failure")

	// The replica recovers and re-syncs; after another fails, the
	// recovered replica plus one peer must still serve the identical Program.
	s.RecoverReplica(0)
	s.FailReplica(1)
	readBack("after recovery")
}
