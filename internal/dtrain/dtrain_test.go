package dtrain

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"recycle/internal/engine"
	"recycle/internal/schedule"
	"recycle/internal/tensor"
)

func smallConfig() Config {
	return Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5,
		Seed: 42, LR: 1e-2,
	}
}

// TestGradientEquivalenceUnderFailure is the paper's central accuracy
// claim (§3.1, §5): adapted execution with rerouted micro-batches computes
// exactly — bitwise — the gradients of fault-free execution.
func TestGradientEquivalenceUnderFailure(t *testing.T) {
	ref := New(smallConfig())
	adapted := New(smallConfig())
	victim := schedule.Worker{Stage: 2, Pipeline: 1}
	for i := 0; i < 5; i++ {
		if i == 2 {
			adapted.Fail(victim)
		}
		lr, err := ref.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		la, err := adapted.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		if lr != la {
			t.Fatalf("iteration %d: loss %v (fault-free) != %v (adapted)", i, lr, la)
		}
	}
	for i := 0; i < 4; i++ {
		w := schedule.Worker{Stage: i, Pipeline: 0}
		pr, pa := ref.StageParams(w), adapted.StageParams(w)
		for j := range pr {
			if !tensor.Equal(pr[j].W, pa[j].W) {
				t.Fatalf("stage %d param %d differs after adapted training", i, j)
			}
		}
	}
}

// TestGradientEquivalenceMultiFailureAndRejoin extends the equivalence
// through two concurrent failures and a re-join.
func TestGradientEquivalenceMultiFailureAndRejoin(t *testing.T) {
	ref := New(smallConfig())
	adapted := New(smallConfig())
	w1 := schedule.Worker{Stage: 2, Pipeline: 1}
	w2 := schedule.Worker{Stage: 0, Pipeline: 2}
	for i := 0; i < 8; i++ {
		switch i {
		case 1:
			adapted.Fail(w1)
		case 3:
			adapted.Fail(w2)
		case 5:
			if err := adapted.Rejoin(w1); err != nil {
				t.Fatal(err)
			}
		}
		lr, err := ref.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		la, err := adapted.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		if lr != la {
			t.Fatalf("iteration %d: loss diverged: %v vs %v", i, lr, la)
		}
	}
}

// TestReplicaConsistency checks that after adapted iterations every live
// data-parallel replica holds identical parameters (the invariant that
// makes peer rerouting possible at all).
func TestReplicaConsistency(t *testing.T) {
	rt := New(smallConfig())
	rt.Fail(schedule.Worker{Stage: 3, Pipeline: 2})
	for i := 0; i < 3; i++ {
		if _, err := rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	for stage := 0; stage < 4; stage++ {
		ref := rt.StageParams(schedule.Worker{Stage: stage, Pipeline: 0})
		for k := 1; k < 3; k++ {
			w := schedule.Worker{Stage: stage, Pipeline: k}
			if stage == 3 && k == 2 {
				continue // failed worker holds stale state
			}
			ps := rt.StageParams(w)
			for j := range ref {
				if !tensor.Equal(ref[j].W, ps[j].W) {
					t.Fatalf("replica %s param %d diverged from pipeline 0", w, j)
				}
			}
		}
	}
}

// TestRejoinRestoresState checks the point-to-point parameter copy on
// re-join.
func TestRejoinRestoresState(t *testing.T) {
	rt := New(smallConfig())
	victim := schedule.Worker{Stage: 1, Pipeline: 1}
	rt.Fail(victim)
	for i := 0; i < 2; i++ {
		if _, err := rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	donor := rt.StageParams(schedule.Worker{Stage: 1, Pipeline: 0})
	restored := rt.StageParams(victim)
	for j := range donor {
		if !tensor.Equal(donor[j].W, restored[j].W) {
			t.Fatalf("rejoined worker param %d not restored", j)
		}
	}
	if _, err := rt.RunIteration(); err != nil {
		t.Fatalf("iteration after rejoin: %v", err)
	}
}

// TestRejoinWithoutFailureErrors checks the guard.
func TestRejoinWithoutFailureErrors(t *testing.T) {
	rt := New(smallConfig())
	if err := rt.Rejoin(schedule.Worker{Stage: 0, Pipeline: 0}); err == nil {
		t.Fatal("rejoining a live worker should fail")
	}
}

// TestLossDecreases sanity-checks that the substrate actually trains.
func TestLossDecreases(t *testing.T) {
	rt := New(smallConfig())
	first, err := rt.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 9; i++ {
		last, err = rt.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !(last < first) {
		t.Fatalf("loss did not decrease: first %v last %v", first, last)
	}
}

// TestRollbackOnNaN injects a non-finite weight and checks the post-step
// validation triggers a cluster-wide rollback (§5).
// iterateWatched runs one iteration under a watchdog: with no dependency
// board to post to, an aborted iteration unwinds only if every parked
// receiver sees the router's done channel — a miss would hang, not fail.
func iterateWatched(t *testing.T, rt *Runtime, events ...CascadeEvent) (float64, error) {
	t.Helper()
	type result struct {
		loss float64
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		loss, err := rt.RunIteration(events...)
		ch <- result{loss, err}
	}()
	select {
	case r := <-ch:
		return r.loss, r.err
	case <-time.After(30 * time.Second):
		t.Fatal("RunIteration did not return: an aborted iteration failed to unwind")
		return 0, nil
	}
}

func TestRollbackOnNaN(t *testing.T) {
	rt := New(smallConfig())
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}
	w := schedule.Worker{Stage: 1, Pipeline: 1}
	params := rt.StageParams(w)
	params[0].W.Data[0] = math.NaN()
	if _, err := iterateWatched(t, rt); err == nil {
		t.Fatal("expected a rolled-back iteration after NaN injection")
	}
}

// TestRollbackLeavesNoStaleState checks the abort/rollback cleanup: a
// rolled-back iteration must leave no in-flight residue (activation
// stashes, weight-gradient stores). If residue leaked, the next
// iteration's all-reduce would see duplicate or surplus contributions and
// fail with an accounting error; the only acceptable failure afterwards
// is the (persistent) numerical one.
func TestRollbackLeavesNoStaleState(t *testing.T) {
	rt := New(smallConfig())
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}
	w := schedule.Worker{Stage: 1, Pipeline: 1}
	rt.StageParams(w)[0].W.Data[0] = math.NaN()
	if _, err := iterateWatched(t, rt); err == nil {
		t.Fatal("expected a rolled-back iteration after NaN injection")
	}
	// NaN contamination is not arithmetically reversible, so the next
	// iteration must fail validation again — but through a *clean*
	// pipeline: any 'contribution' accounting error means the rollback
	// leaked stashes or gradient stores into this iteration.
	_, err := iterateWatched(t, rt)
	if err == nil {
		t.Fatal("NaN state cannot validate; expected another rollback")
	}
	if s := err.Error(); strings.Contains(s, "contribution") {
		t.Fatalf("rollback leaked in-flight state into the next iteration: %v", err)
	}
}

// fixedSource is a ProgramSource that hands out one Program whatever the
// failure set asked for — a misdirected or stale store entry.
type fixedSource struct{ prog *schedule.Program }

func (s fixedSource) ProgramFor(map[schedule.Worker]bool) (*schedule.Program, error) {
	return s.prog, nil
}

// TestForeignProgramIsRejected covers the stale-or-misdirected-Program
// case of an executor: a Program of another job's shape (it used to kill
// the process with a nil dereference in a worker goroutine), and one of the
// right shape compiled around a failure set the runtime is not in, are
// both refused with ErrForeignProgram before anything runs, and the
// runtime then trains on as if the fetch had never happened.
func TestForeignProgramIsRejected(t *testing.T) {
	cfg := Config{DP: 2, PP: 2, MB: 4, InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5, Seed: 7, LR: 1e-2}
	compile := func(dp, pp, mb int, failed map[schedule.Worker]bool) *schedule.Program {
		job, stats := engine.ShapeJob(dp, pp, mb)
		prog, err := engine.New(job, stats, engine.Options{UnrollIterations: 1}).ProgramFor(failed)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	victim := schedule.Worker{Stage: 1, Pipeline: 0}
	around := map[schedule.Worker]bool{victim: true}
	cases := []struct {
		name   string
		prog   *schedule.Program
		failed bool // the runtime has lost victim
	}{
		{"another job's shape", compile(3, 2, 4, nil), false},
		{"a failure the runtime has not seen", compile(2, 2, 4, around), false},
		{"a failure set the runtime has moved past", compile(2, 2, 4, nil), true},
	}
	for _, tc := range cases {
		ref, rt := New(cfg), New(cfg)
		if tc.failed {
			ref.Fail(victim)
			rt.Fail(victim)
		}
		rt.SetProgramSource(fixedSource{tc.prog})
		_, err := iterateWatched(t, rt)
		if !errors.Is(err, ErrForeignProgram) {
			t.Fatalf("%s: RunIteration returned %v, want ErrForeignProgram", tc.name, err)
		}
		if rt.iter != 0 {
			t.Fatalf("%s: a rejected Program advanced the runtime to iteration %d", tc.name, rt.iter)
		}
		rt.SetProgramSource(nil)
		for i := 0; i < 2; i++ {
			want, err := iterateWatched(t, ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := iterateWatched(t, rt)
			if err != nil {
				t.Fatalf("%s: iteration %d after the rejection: %v", tc.name, i, err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: iteration %d loss %v after the rejection, reference %v", tc.name, i, got, want)
			}
		}
	}
}

// TestDatasetDeterministic checks the data source is a pure function of
// its coordinates.
func TestDatasetDeterministic(t *testing.T) {
	a := NewDataset(4, 2, 3, 7)
	b := NewDataset(4, 2, 3, 7)
	if !tensor.Equal(a.Input(nil, 1, 2, 3), b.Input(nil, 1, 2, 3)) {
		t.Fatal("dataset inputs not deterministic")
	}
	if !tensor.Equal(a.Target(nil, a.Input(nil, 1, 2, 3)), b.Target(nil, b.Input(nil, 1, 2, 3))) {
		t.Fatal("dataset targets not deterministic")
	}
	if tensor.Equal(a.Input(nil, 1, 2, 3), a.Input(nil, 1, 2, 4)) {
		t.Fatal("different micro-batches produced identical data")
	}
	// Distinct coordinates give distinct inputs across a whole live shape.
	type coord struct{ iter, pipeline, mb int }
	seen := make(map[string]coord)
	for iter := 0; iter < 4; iter++ {
		for pipeline := 0; pipeline < 4; pipeline++ {
			for mb := 0; mb < 8; mb++ {
				key := fmt.Sprint(a.Input(nil, iter, pipeline, mb).Data)
				if prev, dup := seen[key]; dup {
					t.Fatalf("%+v and %+v produced identical data", prev, coord{iter, pipeline, mb})
				}
				seen[key] = coord{iter, pipeline, mb}
			}
		}
	}
}

// TestKernelDelaysStretchIteration checks the Table 2 instrumentation: a
// configured kernel delay lower-bounds the measured iteration latency.
func TestKernelDelaysStretchIteration(t *testing.T) {
	cfg := smallConfig()
	cfg.MB = 4
	cfg.Delays = schedule.Durations{F: 500, BInput: 500, BWeight: 500, Opt: 500}
	rt := New(cfg)
	start := time.Now()
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Critical path >= (PP + MB - 1) forwards + backwards ~ well above 5ms.
	if elapsed < 5*time.Millisecond {
		t.Fatalf("iteration took %s, kernel delays not applied", elapsed)
	}
}
