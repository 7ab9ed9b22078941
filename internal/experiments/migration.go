package experiments

import (
	"fmt"
	"strings"
	"time"

	"recycle/internal/config"
	"recycle/internal/failure"
	"recycle/internal/replay"
)

// MigrationRow compares ReCycle's measured state movement under
// op-granularity replay against the failure-normalization scalar
// baseline's restart charge, for one (model, failure frequency) cell of
// the monotonic workload. The paper frames ReCycle against
// redundancy-based recovery (Bamboo) and restart-based reconfiguration
// (Oobleck's failure normalization): this table quantifies the adaptation
// side — how much state actually moves when micro-batches are re-routed
// instead of workers being swapped in.
type MigrationRow struct {
	Model     string
	Frequency time.Duration
	// Failures is the number of workers lost within the horizon; Events
	// the membership events the replay saw (equal for monotonic traces).
	Failures int
	Events   int
	// MigratedTriples and ReroutedOps are replay-measured: whole
	// micro-batch triples (and individual instructions) whose remaining
	// work changed owners at a splice. The triple is the unit of state
	// movement — its activation stash and weight-gradient store travel
	// with it.
	MigratedTriples int
	ReroutedOps     int
	// ReplayStallSeconds is the replay's total emergent stall over the
	// horizon (lost work re-execution, re-plan bubbles, detection floors).
	ReplayStallSeconds float64
	// NormalizationCopies and NormalizationStallSeconds are the scalar
	// failure-normalization charge for the same trace: one stage-parameter
	// copy per failure plus a detection delay per event, the analytic
	// stall a normalization-and-swap recovery would bill.
	NormalizationCopies       int
	NormalizationStallSeconds float64
}

// MigrationJob computes the migration comparison for one job across the
// Table 1 failure frequencies, least to most frequent. More frequent
// failures can only move more state, so MigratedTriples is monotone
// non-decreasing down the rows (asserted in tests).
func MigrationJob(job config.Job) ([]MigrationRow, error) {
	eng, stats, err := ReplayEngine(job, nil)
	if err != nil {
		return nil, err
	}
	opts := ReplayOptions(job, stats)
	copySec := stageCopySeconds(stats, job.Hardware)
	var rows []MigrationRow
	for _, freq := range config.Table1Frequencies() {
		tr := failure.Monotonic(job.Parallel.Workers(), freq, Horizon)
		rep, err := replay.Replay(eng, tr, opts)
		if err != nil {
			return nil, fmt.Errorf("migration: %s %s: %w", job.Model.Name, freq, err)
		}
		row := MigrationRow{
			Model:              job.Model.Name,
			Frequency:          freq,
			Events:             len(rep.Events),
			MigratedTriples:    rep.MigratedTriples,
			ReplayStallSeconds: rep.StallSeconds,
		}
		for _, ev := range rep.Events {
			row.ReroutedOps += ev.ReroutedOps
			if ev.Kind == "fail" { // monotonic traces never re-join
				row.Failures += len(ev.Workers)
			}
		}
		row.NormalizationCopies = row.Failures
		row.NormalizationStallSeconds = float64(row.Failures) * (opts.DetectDelay.Seconds() + copySec)
		rows = append(rows, row)
	}
	return rows, nil
}

// Migration runs the replay-vs-normalization comparison on the Table 1
// jobs and renders the report section.
func Migration() ([]MigrationRow, string, error) {
	var rows []MigrationRow
	var b strings.Builder
	fmt.Fprintf(&b, "Migration: replay-measured state movement vs failure-normalization restart charge\n")
	fmt.Fprintf(&b, "%-14s %6s %9s %10s %10s %12s %11s %12s\n",
		"model", "freq", "failures", "triples", "ops", "replay-stall", "norm-copies", "norm-stall")
	for _, job := range config.Table1Jobs() {
		jr, err := MigrationJob(job)
		if err != nil {
			return nil, "", err
		}
		for _, r := range jr {
			fmt.Fprintf(&b, "%-14s %6s %9d %10d %10d %11.1fs %11d %11.1fs\n",
				r.Model, shortDur(r.Frequency), r.Failures, r.MigratedTriples, r.ReroutedOps,
				r.ReplayStallSeconds, r.NormalizationCopies, r.NormalizationStallSeconds)
		}
		rows = append(rows, jr...)
	}
	return rows, b.String(), nil
}
