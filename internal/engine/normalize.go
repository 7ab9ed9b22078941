package engine

import (
	"fmt"

	"recycle/internal/schedule"
)

// normalizeFailures implements Algorithm 1 (Failure Normalization): a
// dynamic program that distributes F failures across PP pipeline stages to
// minimize total rerouting overhead. It returns A, a slice of length PP
// where A[i] is the number of failures migrated to stage i; sum(A) == F.
//
// The recurrence is exactly the paper's:
//
//	O[i][f] = min over x<=f of O[i-1][f-x] + COST(x)
//
// with COST the line-27 heuristic — the extra time slots needed when x of
// a stage's DP peers fail: the rerouted work (MB*x micro-batches, three
// slots each) minus the bubbles the DP-x surviving peers can absorb
// ((PP-1)*3 each), floored at zero. (The paper prints min(0, ...); the
// expression is only meaningful as max(0, ...) — a negative overhead would
// reward piling failures onto one stage, the opposite of the algorithm's
// stated goal — so we implement the max.) Ties prefer later stages, which
// hold more surplus memory and whose cool-down bubbles sit closer to their
// (staggered) optimizer deadline (§4.2.1 intuition b).
func normalizeFailures(dp, pp, mb, failures int) ([]int, error) {
	if failures < 0 {
		return nil, fmt.Errorf("engine: negative failure count")
	}
	if failures > dp*pp {
		return nil, fmt.Errorf("engine: %d failures exceed %d workers", failures, dp*pp)
	}
	// O[f] is the running DP row (stage-major fold); A holds assignments.
	type cell struct {
		cost   int64
		assign []int
	}
	prev := make([]cell, failures+1)
	for f := range prev {
		prev[f] = cell{cost: normalizationCost(dp, pp, mb, f), assign: []int{f}}
	}
	for i := 1; i < pp; i++ {
		cur := make([]cell, failures+1)
		for f := 0; f <= failures; f++ {
			best := cell{cost: int64(1) << 62}
			for x := 0; x <= f && x <= dp; x++ {
				c := prev[f-x].cost + normalizationCost(dp, pp, mb, x)
				// <= prefers the largest x at the latest stage scanned,
				// i.e. ties shift failures toward later stages.
				if c <= best.cost {
					assign := make([]int, 0, i+1)
					assign = append(assign, prev[f-x].assign...)
					assign = append(assign, x)
					best = cell{cost: c, assign: assign}
				}
			}
			cur[f] = best
		}
		prev = cur
	}
	return prev[failures].assign, nil
}

// normalizationCost is the COST heuristic used by the dynamic program. It
// refines Algorithm 1's line 27 to measure the per-surviving-peer overload
// rather than the stage total:
//
//	COST(f) = max(0, MB*f*3/(DP-f) - (PP-1)*3)     (scaled by 1024)
//
// The paper's literal stage-total expression, max(0, MB*f*3 -
// (DP-f)*(PP-1)*3), is linear in f, so every way of splitting F failures
// across stages costs the same once bubbles are exhausted and the DP's
// stated goal — "evenly balance the additional workload" (§4.2.1
// intuition a) — never emerges from it. Iteration
// latency is gated by the most-loaded surviving peer group, and the
// per-peer form is convex in f, which makes the DP prefer balanced
// assignments exactly as the paper intends. Ties still shift failures to
// later stages (intuition b).
func normalizationCost(dp, pp, mb, f int) int64 {
	if f <= 0 {
		return 0
	}
	if f >= dp {
		// The whole peer group is gone; normalization cannot place this
		// many failures on one stage. Prohibitive cost.
		return int64(1) << 40
	}
	demandPerPeer := int64(mb) * int64(f) * 3 * 1024 / int64(dp-f)
	supply := int64(pp-1) * 3 * 1024
	if demandPerPeer <= supply {
		return 0
	}
	return demandPerPeer - supply
}

// assignmentWorkers converts a per-stage failure assignment into a
// concrete normalized failed-worker set. Within a stage the specific
// pipelines are arbitrary (§4.2.1: "the specific pipeline assignments
// being arbitrary and not impacting performance"); we fail the highest
// pipeline ids, keeping pipeline 0 always intact.
func assignmentWorkers(assign []int, dp int) []schedule.Worker {
	var failed []schedule.Worker
	for stage, n := range assign {
		for x := 0; x < n && x < dp; x++ {
			failed = append(failed, schedule.Worker{Stage: stage, Pipeline: dp - 1 - x})
		}
	}
	return failed
}

// migrationsNeeded returns how many point-to-point parameter copies are
// required to morph the concrete failure set into the normalized one: the
// number of failed workers not already at a normalized location. Each
// migration copies one stage's parameters between two live workers —
// ReCycle's entire reconfiguration cost (vs. Oobleck's full-pipeline
// reshuffle).
func migrationsNeeded(concrete []schedule.Worker, assign []int) int {
	perStage := make(map[int]int)
	for _, w := range concrete {
		perStage[w.Stage]++
	}
	moves := 0
	for stage, have := range perStage {
		want := 0
		if stage < len(assign) {
			want = assign[stage]
		}
		if have > want {
			moves += have - want
		}
	}
	return moves
}
