package core

import "recycle/internal/schedule"

// RenamePlan applies a pipeline permutation to a plan — the engine's
// un-canonicalization step after solving one cost-equivalence-class
// representative per victim orbit (schedule.CanonicalizeVictims). The
// permutation must move pipelines only within cost-equivalence classes;
// the renamed schedule is then an exact isomorph of the original
// (schedule.RenamePipelines), so period, makespan and per-stage
// assignment carry over unchanged. The warm-start hint is dropped: hints
// describe the instance that was actually solved, and the canonical
// plan keeps it.
func RenamePlan(p *Plan, perm []int) *Plan {
	failed := make([]schedule.Worker, len(p.Failed))
	for i, w := range p.Failed {
		failed[i] = schedule.Worker{Stage: w.Stage, Pipeline: perm[w.Pipeline]}
	}
	schedule.SortWorkers(failed)
	out := *p
	out.Failed = failed
	out.Schedule = schedule.RenamePipelines(p.Schedule, perm)
	out.Hint = nil
	return &out
}
