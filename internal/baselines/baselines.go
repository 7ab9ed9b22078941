// Package baselines models the systems ReCycle is evaluated against in
// §6: Bamboo (redundant computation, NSDI'23), Oobleck (pipeline
// templates, SOSP'23), elastic batching (drop a data-parallel group per
// failure) and the fault-scaled ideal. Each implements sim.System.
//
// The models are behavioral reconstructions from the papers' published
// designs, driven by the same profiled statistics (internal/profile) as
// ReCycle's own simulator path, so that comparisons reflect structural
// differences — redundancy overhead, memory pressure, pipeline imbalance
// and reconfiguration cost — rather than modeling artifacts.
package baselines

import (
	"recycle/internal/config"
	"recycle/internal/model"
	"recycle/internal/profile"
)

// Common bundles what every baseline model needs.
type Common struct {
	Job   config.Job
	Stats profile.Stats
	Costs model.Costs
	// FaultFree is the fault-free 1F1B throughput in samples/sec that all
	// systems are normalized against (from the ReCycle planner's
	// zero-failure plan, so every system shares one baseline).
	FaultFree float64
}

// NewCommon derives the shared model state.
func NewCommon(job config.Job, stats profile.Stats, faultFree float64) (Common, error) {
	costs, err := model.Split(job.Model, job.Parallel.PP, job.Batch.MicroBatch)
	if err != nil {
		return Common{}, err
	}
	return Common{Job: job, Stats: stats, Costs: costs, FaultFree: faultFree}, nil
}

// slotSeconds converts stats units into seconds.
func (c Common) slotSeconds(units int64) float64 {
	return float64(units) * c.Stats.UnitSeconds
}

// iterSeconds1F1B returns the fault-free 1F1B iteration latency with a
// per-stage time multiplier (stageScale > 1 when a node holds more layers)
// and mb micro-batches on an n-stage pipeline.
func (c Common) iterSeconds1F1B(n, mb int, stageScale float64) float64 {
	per := float64(c.Stats.TF+c.Stats.TBInput+c.Stats.TBWeight) * stageScale
	units := float64(n-1)*per + float64(mb)*per + float64(c.Stats.TOpt)
	return units * c.Stats.UnitSeconds
}

// FaultScaled is the ideal of Fig 10: fault-free throughput scaled by the
// fraction of live workers, with no reconfiguration cost.
type FaultScaled struct{ C Common }

// Name implements sim.System.
func (s FaultScaled) Name() string { return "FaultScaled" }

// Throughput implements sim.System.
func (s FaultScaled) Throughput(failed int) (float64, error) {
	total := s.C.Job.Parallel.Workers()
	if failed >= total {
		return 0, nil
	}
	return s.C.FaultFree * float64(total-failed) / float64(total), nil
}

// ReconfigStall implements sim.System.
func (s FaultScaled) ReconfigStall(prev, next int) float64 { return 0 }

// Elastic models elastic batching (§2.2.3): each failure takes its whole
// data-parallel pipeline offline, so a single node failure removes PP
// workers' capacity and throughput drops by 1/DP.
type Elastic struct{ C Common }

// Name implements sim.System.
func (s Elastic) Name() string { return "Elastic" }

// Throughput implements sim.System.
func (s Elastic) Throughput(failed int) (float64, error) {
	dp := s.C.Job.Parallel.DP
	lost := failed // worst case: each failure hits a fresh group
	if lost > dp {
		lost = dp
	}
	return s.C.FaultFree * float64(dp-lost) / float64(dp), nil
}

// ReconfigStall implements sim.System: dropping a group re-balances the
// global batch, requiring a coordinated restart of the input pipeline.
func (s Elastic) ReconfigStall(prev, next int) float64 {
	if next > prev {
		return 30
	}
	return 10
}
