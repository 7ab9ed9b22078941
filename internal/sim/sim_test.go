package sim

import (
	"testing"
	"time"

	"recycle/internal/baselines"
	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/profile"
)

func testJob() config.Job {
	return config.Job{
		Model:    config.GPT3XL,
		Parallel: config.Parallelism{DP: 4, PP: 4, TP: 1},
		Batch:    config.Batch{GlobalBatch: 128, MicroBatch: 2},
		Hardware: config.A100x1,
	}
}

// testCommon builds the baselines' shared state, normalized against the
// fault-free throughput of the plan service's zero-failure plan.
func testCommon(t *testing.T) baselines.Common {
	t.Helper()
	job := testJob()
	stats, err := profile.Analytic(job)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(job, stats, engine.Options{UnrollIterations: 2})
	p, err := eng.Plan(0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := baselines.NewCommon(job, stats, eng.ThroughputSamplesPerSec(p))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunAccounting checks interval bookkeeping: samples = sum of
// throughput x (interval - stall).
func TestRunAccounting(t *testing.T) {
	sys := baselines.Oobleck{C: testCommon(t)}
	tr := failure.Monotonic(16, 2*time.Hour, 6*time.Hour)
	res := Run(sys, tr, 6*time.Hour)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var want float64
	for _, p := range res.Timeline {
		want += p.Throughput * (p.End - p.Start - p.Stall).Seconds()
	}
	if diff := res.Samples - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("sample accounting off by %v", diff)
	}
	if res.Average <= 0 {
		t.Fatal("average throughput should be positive")
	}
}

// TestStallsChargedOnFailureEvents checks that each availability change
// after t=0 carries a reconfiguration stall.
func TestStallsChargedOnFailureEvents(t *testing.T) {
	sys := baselines.Oobleck{C: testCommon(t)}
	tr := failure.Monotonic(16, time.Hour, 6*time.Hour)
	res := Run(sys, tr, 6*time.Hour)
	if len(res.Timeline) < 2 {
		t.Fatalf("trace produced %d intervals, want several", len(res.Timeline))
	}
	for i, p := range res.Timeline {
		if i == 0 {
			continue
		}
		if p.Stall <= 0 {
			t.Fatalf("interval %d (failed=%d) has no reconfiguration stall", i, p.Failed)
		}
	}
}

// TestSystemsOrderingUnderChurn checks the baselines' side of the paper's
// comparative shape on a churny trace: every system trains, and none beats
// the fault-free throughput all of them are normalized against. ReCycle's
// side of the ordering is replayed at op granularity and pinned by
// experiments.TestTable1Shapes.
func TestSystemsOrderingUnderChurn(t *testing.T) {
	common := testCommon(t)
	tr := failure.Poisson(16, 45*time.Minute, 90*time.Minute, 6*time.Hour, 7)
	for _, sys := range []System{
		baselines.Oobleck{C: common},
		baselines.Bamboo{C: common},
		baselines.Elastic{C: common},
		baselines.FaultScaled{C: common},
	} {
		res := Run(sys, tr, 6*time.Hour)
		if res.OOM {
			continue
		}
		if res.Average <= 0 || res.Average > common.FaultFree {
			t.Errorf("%s averages %.2f under churn, want within (0, fault-free %.2f]", sys.Name(), res.Average, common.FaultFree)
		}
	}
}
