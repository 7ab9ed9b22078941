package dtrain

import (
	"testing"
	"time"

	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// TestAgreementWithHeterogeneousDurations extends the by-construction
// agreement check to a cost-model plan: when the Program is solved and
// stamped with per-(stage, op, worker) durations (here a 3x straggler),
// the runtime's executed timeline carries exactly the stamped spans and
// the simulator's virtual execution matches instruction for instruction.
func TestAgreementWithHeterogeneousDurations(t *testing.T) {
	victim := schedule.Worker{Stage: 1, Pipeline: 0}
	cfg := Config{
		DP: 3, PP: 4, MB: 6,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 5,
		Seed: 42, LR: 1e-2,
		CostModel: profile.UniformCost(profile.Unit()).WithWorkerScale(victim, 3),
	}
	rt := New(cfg)
	rt.Fail(schedule.Worker{Stage: 2, Pipeline: 1}) // a hard failure on top of the gray one
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}

	prog, starts, ends := rt.ExecutedTimeline()
	if prog == nil {
		t.Fatal("runtime recorded no executed timeline")
	}
	// The plan must actually be heterogeneous: some victim op stamped 3x.
	hetero := false
	for i := range prog.Instrs {
		op := prog.Op(i)
		if op.Type != schedule.Optimizer && op.Worker() == victim && prog.DurOf(i) == 3*prog.Durations.Of(op.Type) {
			hetero = true
			break
		}
	}
	if !hetero {
		t.Fatal("no instruction on the straggler carries a scaled duration")
	}
	ex, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Completed != len(prog.Instrs) {
		t.Fatalf("simulator completed %d of %d instructions", ex.Completed, len(prog.Instrs))
	}
	for i := range prog.Instrs {
		if starts[i] != ex.Start[i] || ends[i] != ex.End[i] {
			t.Fatalf("instruction %d (%s): runtime span [%d,%d] != simulated span [%d,%d]",
				i, prog.Op(i), starts[i], ends[i], ex.Start[i], ex.End[i])
		}
	}
}

// TestDetectorFlagsStragglerAndTriggersReplan drives the full gray-failure
// loop in-process: per-op timings flow into the detector, the detector
// flags the slow worker and its callback retunes the runtime's cost model,
// and the next fetched Program routes work away from the victim.
func TestDetectorFlagsStragglerAndTriggersReplan(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 4, MicroBatchSize: 3,
		Seed: 9, LR: 1e-2,
	}
	rt := New(cfg)
	victim := schedule.Worker{Stage: 0, Pipeline: 1}

	d := NewDetector(time.Minute, nil)
	d.StraggleFactor = 1.5
	var flagged []schedule.Worker
	d.OnStraggle(func(w schedule.Worker, factor float64) {
		flagged = append(flagged, w)
		rt.MarkStraggler(w, factor)
	})

	before, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	beforeOps := 0
	for i := range before.Instrs {
		if before.Op(i).Type != schedule.Optimizer && before.Op(i).Worker() == victim {
			beforeOps++
		}
	}

	// Synthetic heartbeat statistics: the victim reports 2x op times.
	for w := range rt.stages {
		dur := 10 * time.Millisecond
		if w == victim {
			dur = 20 * time.Millisecond
		}
		for i := 0; i < 6; i++ {
			d.ObserveOp(w, schedule.F, dur)
		}
	}
	got := d.DetectStragglers()
	if len(flagged) != 1 || flagged[0] != victim {
		t.Fatalf("flagged %v, want exactly [%s]", flagged, victim)
	}
	if f := got[victim]; f < 1.9 || f > 2.1 {
		t.Fatalf("observed factor %.2f, want ~2", f)
	}
	// Flagging is once-per-worker until cleared.
	if d.DetectStragglers(); len(flagged) != 1 {
		t.Fatalf("straggler re-flagged: %v", flagged)
	}

	after, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	afterOps := 0
	for i := range after.Instrs {
		if after.Op(i).Type != schedule.Optimizer && after.Op(i).Worker() == victim {
			afterOps++
		}
	}
	if afterOps >= beforeOps {
		t.Fatalf("re-plan kept %d ops on the straggler (was %d)", afterOps, beforeOps)
	}
	// The training math is untouched: the demoted worker still steps, so
	// an iteration under the straggler-aware plan must succeed and match
	// the fault-free loss bitwise.
	ref := New(cfg)
	lossRef, err := ref.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	lossAware, err := rt.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if lossRef != lossAware {
		t.Fatalf("aware-plan loss %v != fault-free loss %v", lossAware, lossRef)
	}

	d.ClearStraggler(victim)
	if len(d.Stragglers()) != 0 {
		t.Fatal("ClearStraggler left the worker flagged")
	}
}

// TestDetectorTracksDriftWithHysteresis drives the continuous-tracking
// loop: a worker that keeps slowing down is re-flagged when its EWMA
// factor drifts enough to change the routing, small wobbles stay silent,
// recovery through the hysteresis band clears it with factor 1 (the cost
// model's clear value), and a later slowdown re-earns the flag — the
// clear-and-reflag cycle.
func TestDetectorTracksDriftWithHysteresis(t *testing.T) {
	d := NewDetector(time.Minute, nil)
	d.StraggleFactor = 1.5
	d.EWMAAlpha = 0.5
	d.MinObservations = 4
	victim := schedule.Worker{Stage: 0, Pipeline: 2}
	type call struct {
		w      schedule.Worker
		factor float64
	}
	var calls []call
	d.OnStraggle(func(w schedule.Worker, factor float64) {
		calls = append(calls, call{w, factor})
	})
	healthy := []schedule.Worker{{Stage: 0, Pipeline: 0}, {Stage: 0, Pipeline: 1}}
	feed := func(w schedule.Worker, ms int, n int) {
		for i := 0; i < n; i++ {
			d.ObserveOp(w, schedule.F, time.Duration(ms)*time.Millisecond)
		}
	}
	for _, w := range healthy {
		feed(w, 10, 6)
	}
	feed(victim, 20, 6)

	// First crossing: flagged at ~2x.
	d.DetectStragglers()
	if len(calls) != 1 || calls[0].w != victim || calls[0].factor < 1.9 || calls[0].factor > 2.1 {
		t.Fatalf("first flag wrong: %+v", calls)
	}
	// Same statistics again: no re-fire.
	d.DetectStragglers()
	if len(calls) != 1 {
		t.Fatalf("re-fired without drift: %+v", calls)
	}
	// Drift to 3x: one 30ms observation moves the EWMA to 25ms (2.5x) —
	// a 25% move over the reported 2x, so the callback re-fires.
	feed(victim, 30, 1)
	d.DetectStragglers()
	if len(calls) != 2 || calls[1].w != victim || calls[1].factor < 2.4 {
		t.Fatalf("drift not re-flagged: %+v", calls)
	}
	// A tiny wobble after the re-flag stays silent.
	feed(victim, 26, 1)
	d.DetectStragglers()
	if len(calls) != 2 {
		t.Fatalf("noise re-fired the callback: %+v", calls)
	}
	// Recovery: healthy observations walk the EWMA down through the
	// hysteresis band (clear at 0.8 * 1.5 = 1.2x). On the way down, drops
	// big enough to change the routing may re-plan at the lower factor;
	// the final call reports factor 1, so MarkStraggler(w, 1) drops the
	// cost-model entry.
	for i := 0; i < 12 && calls[len(calls)-1].factor != 1; i++ {
		feed(victim, 10, 1)
		d.DetectStragglers()
	}
	if last := calls[len(calls)-1]; last != (call{victim, 1}) {
		t.Fatalf("recovery not cleared with factor 1: %+v", calls)
	}
	for _, c := range calls[2 : len(calls)-1] {
		if c.w != victim || c.factor >= 2.5 || c.factor < 1.2 {
			t.Fatalf("downward re-flag outside (1.2, 2.5): %+v", calls)
		}
	}
	if len(d.Stragglers()) != 0 {
		t.Fatalf("cleared worker still flagged: %v", d.Stragglers())
	}
	// Slowing down again re-earns the flag.
	n := len(calls)
	feed(victim, 40, 8)
	d.DetectStragglers()
	if len(calls) != n+1 || calls[n].w != victim || calls[n].factor < 1.5 {
		t.Fatalf("relapse not re-flagged: %+v", calls)
	}
}

// TestRuntimeFeedsDetector checks the AttachDetector plumbing: running an
// iteration populates the detector's per-worker observations.
func TestRuntimeFeedsDetector(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 2,
		InDim: 4, Hidden: 6, OutDim: 3, MicroBatchSize: 2,
		Seed: 5, LR: 1e-2,
	}
	rt := New(cfg)
	d := NewDetector(time.Minute, nil)
	rt.AttachDetector(d)
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}
	times := rt.MeasuredWorkerTimes()
	if len(times) != 4 {
		t.Fatalf("measured times for %d workers, want 4", len(times))
	}
	d.mu.Lock()
	observed := len(d.opN)
	d.mu.Unlock()
	if observed != 4 {
		t.Fatalf("detector observed %d workers, want 4", observed)
	}
}
