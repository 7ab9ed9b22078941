package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"

	"recycle/internal/schedule"
)

// fingerprint derives the namespace of the configuration's keys from
// exactly what the solver reads besides the failure set: the shape (unroll
// window included), the homogeneous durations, the per-stage memory caps,
// the two technique toggles and the cost table, each varint-encoded.
// Configurations that agree on these solve every failure set to the same
// schedule and compile it to the same Program, so they share every key in
// the replicated store; a field the solver never reads (the model's name,
// say) moves none, and engines built with different cost models (one that
// knows a worker is slow and one that does not) never share one.
func (p *Planner) fingerprint() string {
	sh, d, caps := p.Shape(), p.Stats.Durations(), p.Stats.MemCapPerStage
	var bits int64
	if p.Techniques.DecoupledBackProp {
		bits |= 1
	}
	if p.Techniques.StaggeredOptimizer {
		bits |= 2
	}
	var b []byte
	for _, v := range []int64{int64(sh.DP), int64(sh.PP), int64(sh.MB), int64(sh.Iter), d.F, d.BInput, d.BWeight, d.Opt, d.Comm, bits, int64(len(caps))} {
		b = binary.AppendVarint(b, v)
	}
	for _, c := range caps {
		b = binary.AppendVarint(b, int64(c))
	}
	b = binary.AppendVarint(b, int64(len(p.costs)))
	for _, c := range p.costs {
		b = binary.AppendVarint(b, c)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// nkey addresses the normalized plan for n simultaneous failures in the
// engine's cache — the paper's "one plan per tolerated failure count"
// layout (§4.2). Plans never reach the replicated store; their Programs do.
func nkey(fp string, n int) string {
	return "plans/" + fp + "/n/" + strconv.Itoa(n)
}

// ckey addresses a plan solved for one specific failed-worker set in the
// engine's cache, used by the live runtime when no normalized plan
// matches. Workers must already be sorted.
func ckey(fp string, ws []schedule.Worker) string {
	var b strings.Builder
	b.Grow(len(fp) + 9 + len(ws)*8)
	b.WriteString("plans/")
	b.WriteString(fp)
	b.WriteString("/c/")
	appendVictims(&b, ws)
	return b.String()
}

// programKey addresses a compiled Program artifact in the replicated
// store: the plan namespace plus the schedule's sorted failed set. Any
// process sharing the store — the engine that compiled it or a remote
// executor's fetch-only Client — derives the same key.
func programKey(fp string, ws []schedule.Worker) string {
	var b strings.Builder
	b.Grow(len(fp) + 10 + len(ws)*8)
	b.WriteString("programs/")
	b.WriteString(fp)
	b.WriteString("/")
	appendVictims(&b, ws)
	return b.String()
}

// spliceKey addresses a mid-iteration spliced Program artifact in the
// replicated store. Splices are per-event, not per-failure-set: the same
// post-event failed set can arise from different cut instants with
// different frozen prefixes, so the event identifier (derived canonically
// by the coordinator from iteration, cut and membership delta) names the
// artifact inside the plan namespace.
func spliceKey(fp, event string) string {
	return "splices/" + fp + "/" + event
}

// appendVictims writes the canonical "stage.pipeline,..." rendering of a
// sorted victim set.
func appendVictims(b *strings.Builder, ws []schedule.Worker) {
	for i, w := range ws {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(w.Stage))
		b.WriteByte('.')
		b.WriteString(strconv.Itoa(w.Pipeline))
	}
}

// workerList flattens a failed-worker set into a deterministic sorted list
// of the workers marked true; a false entry is a healthy worker.
func workerList(set map[schedule.Worker]bool) []schedule.Worker {
	if len(set) == 0 {
		return nil
	}
	ws := make([]schedule.Worker, 0, len(set))
	for w, down := range set {
		if down {
			ws = append(ws, w)
		}
	}
	schedule.SortWorkers(ws)
	return ws
}

// SortWorkers orders workers canonically by (stage, pipeline), the order
// every key above renders them in.
func SortWorkers(ws []schedule.Worker) { schedule.SortWorkers(ws) }

// sameWorkers reports whether two sorted worker lists are identical.
func sameWorkers(a, b []schedule.Worker) bool { return slices.Equal(a, b) }
