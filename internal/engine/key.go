package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"strconv"
	"strings"

	"recycle/internal/config"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// fingerprintInput is everything that determines a plan besides the
// failure set: the job geometry, the profiled statistics, the technique
// toggles, the unroll window and the cost model. Two engines with equal
// fingerprints produce interchangeable plans and Programs, so the
// fingerprint namespaces every key in the shared replicated store. The
// cost model enters as its canonical signature string (JSON cannot key
// maps by struct), so engines built with different cost models (say, one
// that knows a worker is slow and one that does not) never share a key.
type fingerprintInput struct {
	Job        config.Job
	Stats      profile.Stats
	Techniques Techniques
	Unroll     int
	Costs      string
}

// Fingerprint derives the deterministic job fingerprint used to key plans.
// costs is the cost model's Signature ("" for the homogeneous model).
func Fingerprint(job config.Job, stats profile.Stats, t Techniques, unroll int, costs string) string {
	b, err := json.Marshal(fingerprintInput{Job: job, Stats: stats, Techniques: t, Unroll: unroll, Costs: costs})
	if err != nil {
		// The input is plain data; Marshal cannot fail. Guard anyway so a
		// future non-marshalable field degrades to a shared namespace
		// instead of a panic.
		return "unfingerprintable"
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
