package experiments

import (
	"fmt"
	"strings"

	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// StragglerRow compares a straggler-oblivious plan against the
// cost-model-aware re-plan for one gray-failure scenario, both executed by
// the discrete-event simulator under the same ground-truth durations.
type StragglerRow struct {
	Shape  string
	Victim schedule.Worker
	Factor float64
	// ObliviousSlots is the virtual-clock makespan of the plan solved with
	// homogeneous durations (the straggler is invisible to the Planner),
	// executed with the victim running at Factor×.
	ObliviousSlots int64
	// AwareSlots is the makespan of the plan solved with the straggler in
	// the cost model (honest timing + load-balanced routing around the slow
	// worker), executed under the identical ground truth.
	AwareSlots int64
	// GainPct is the throughput gain of planning straggler-aware.
	GainPct float64
	// VictimOps counts compute ops placed on the victim by each plan.
	VictimOps, VictimOpsAware int
}

// victimOps counts the compute ops a program places on one worker.
func victimOps(p *schedule.Program, w schedule.Worker) int {
	n := 0
	for i := range p.Instrs {
		if op := p.Op(i); op.Type != schedule.Optimizer && op.Worker() == w {
			n++
		}
	}
	return n
}

// StragglerStudyJob runs the oblivious-vs-aware comparison for one job:
// the victim runs every op at factor× the profiled durations, the
// oblivious engine plans without knowing it, the aware engine plans with
// the straggler in its cost model, and both compiled Programs execute in
// virtual time under the true (slowed) durations. n selects the normalized
// failure count both plans route around on top of the straggler.
func StragglerStudyJob(job config.Job, stats profile.Stats, n int, victim schedule.Worker, factor float64) (StragglerRow, error) {
	truth := profile.UniformCost(stats).WithWorkerScale(victim, factor)
	obliv := engine.New(job, stats, engine.Options{})
	aware := engine.New(job, stats, engine.Options{CostModel: truth})

	oblivPlan, err := obliv.Plan(n)
	if err != nil {
		return StragglerRow{}, err
	}
	for _, w := range oblivPlan.Failed {
		if w == victim {
			return StragglerRow{}, fmt.Errorf("experiments: straggler victim %s is in the normalized failed set; pick a live worker", victim)
		}
	}
	oblivProg, err := obliv.CompiledProgram(oblivPlan)
	if err != nil {
		return StragglerRow{}, err
	}
	// The aware plan routes around the same concrete failures, with the
	// straggler additionally demoted by the cost model.
	var awareProg *schedule.Program
	if len(oblivPlan.Failed) == 0 {
		awareProg, err = aware.Program(0)
	} else {
		awareProg, err = aware.ProgramConcrete(oblivPlan.Failed)
	}
	if err != nil {
		return StragglerRow{}, err
	}

	// Both Programs run under the one ground truth — each op takes its
	// executing worker's modeled time, whatever the plan assumed — so the
	// comparison isolates the scheduling decision.
	var slots [2]int64
	for i, p := range []*schedule.Program{oblivProg, awareProg} {
		view, err := p.WithCosts(truth.Table(p.Shape))
		if err != nil {
			return StragglerRow{}, err
		}
		ex, err := sim.Plain(view)
		if err != nil {
			return StragglerRow{}, err
		}
		slots[i] = ex.Makespan
	}
	row := StragglerRow{
		Shape:          fmt.Sprintf("%dx%dx%d", job.Parallel.DP, job.Parallel.PP, job.Batch.MicroBatchesPerPipeline(job.Parallel)),
		Victim:         victim,
		Factor:         factor,
		ObliviousSlots: slots[0],
		AwareSlots:     slots[1],
		VictimOps:      victimOps(oblivProg, victim),
		VictimOpsAware: victimOps(awareProg, victim),
	}
	if row.AwareSlots > 0 {
		row.GainPct = (float64(row.ObliviousSlots)/float64(row.AwareSlots) - 1) * 100
	}
	return row, nil
}

// StragglerStudy runs the comparison on a synthetic unit-cost shape — the
// Table 2-style harness for the gray-failure claim: a straggler-aware plan
// recovers throughput a straggler-oblivious plan leaves on the table.
func StragglerStudy(dp, pp, mb int, victim schedule.Worker, factor float64) (StragglerRow, error) {
	job, stats := engine.ShapeJob(dp, pp, mb)
	return StragglerStudyJob(job, stats, 0, victim, factor)
}

// Straggler sweeps slowdown factors on the paper's 3x4x6 running-example
// shape and reports the oblivious-vs-aware comparison — the gray-failure
// extension of Table 2.
func Straggler() ([]StragglerRow, string, error) {
	victim := schedule.Worker{Stage: 0, Pipeline: 0}
	var rows []StragglerRow
	var b strings.Builder
	fmt.Fprintf(&b, "Straggler (gray failure): oblivious vs cost-model-aware plans, DES virtual clock\n")
	fmt.Fprintf(&b, "%-8s %-8s %7s %15s %12s %11s %14s\n", "shape", "victim", "factor", "oblivious(slots)", "aware(slots)", "gain%", "victim ops")
	for _, factor := range []float64{1.5, 2, 3} {
		row, err := StragglerStudy(3, 4, 6, victim, factor)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "%-8s %-8s %7.1f %15d %12d %+10.1f%% %7d -> %d\n",
			row.Shape, row.Victim, row.Factor, row.ObliviousSlots, row.AwareSlots, row.GainPct, row.VictimOps, row.VictimOpsAware)
	}
	return rows, b.String(), nil
}
