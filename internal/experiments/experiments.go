package experiments

import (
	"fmt"
	"strings"
	"time"

	"recycle/internal/baselines"
	"recycle/internal/config"
	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/profile"
	"recycle/internal/replay"
	"recycle/internal/sim"
)

// Horizon is the real-experiment duration of §6.1 (6 hours).
const Horizon = 6 * time.Hour

// systemsFor assembles the baselines for a job, normalized against ff,
// the fault-free throughput of the plan service's zero-failure plan.
// ReCycle itself is never a sim.System: its cells are replayed.
func systemsFor(job config.Job) (systems []sim.System, ff float64, err error) {
	stats, err := profile.Analytic(job)
	if err != nil {
		return nil, 0, err
	}
	eng := engine.New(job, stats, engine.Options{})
	p, err := eng.Plan(0)
	if err != nil {
		return nil, 0, err
	}
	ff = eng.ThroughputSamplesPerSec(p)
	common, err := baselines.NewCommon(job, stats, ff)
	if err != nil {
		return nil, 0, err
	}
	systems = []sim.System{
		baselines.Oobleck{C: common},
		baselines.Bamboo{C: common},
		baselines.Elastic{C: common},
		baselines.FaultScaled{C: common},
	}
	return systems, ff, nil
}

// ReplaySummary is the compact, JSON-friendly digest of one replay.Result:
// what recycle-bench -json carries per ReCycle cell instead of the full
// per-event splice log.
type ReplaySummary struct {
	Iterations          int
	Average             float64
	StallSeconds        float64
	LostSlots           int64
	Events              int
	SplicedMidIteration int
	// MigratedTriples counts micro-batch triples that changed owners
	// across all splices — ReCycle's measured state-movement volume.
	MigratedTriples int
}

func summarizeReplay(r *replay.Result) ReplaySummary {
	return ReplaySummary{
		Iterations:          r.Iterations,
		Average:             r.Average,
		StallSeconds:        r.StallSeconds,
		LostSlots:           r.LostSlots,
		Events:              len(r.Events),
		SplicedMidIteration: r.SplicedCount(),
		MigratedTriples:     r.MigratedTriples,
	}
}

// Table1Row is one (model, failure frequency) cell set of Table 1.
type Table1Row struct {
	Model     string
	Frequency time.Duration
	FaultFree float64
	// Avg holds average samples/sec per system name; ReCycle's entry is
	// the op-granularity replay average, the baselines' entries come from
	// their scalar system models. OOM marks systems that cannot run the
	// model at all.
	Avg map[string]float64
	OOM map[string]bool
	// ReCycle summarizes the replay behind ReCycle's cell: iteration
	// count, emergent stall, lost work and migrated micro-batch triples.
	ReCycle ReplaySummary
}

// Table1 reproduces Table 1: average training throughput of ReCycle,
// Oobleck, Bamboo (and the elastic/fault-scaled references) under
// monotonic failures every 6h / 2h / 30m on the three GPT-3 jobs.
// ReCycle's cells are computed by internal/replay — the monotonic trace
// drives chained Program executions whose mid-iteration failures splice
// the in-flight Program, so its stalls are the makespan of real lost and
// re-planned instructions, the same ground truth as its own Fig 9. The
// baselines keep their scalar models (their published reconfiguration
// behavior, not ours).
func Table1() ([]Table1Row, string, error) {
	var rows []Table1Row
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: average throughput (samples/sec) under monotonic failures, 6h horizon\n")
	fmt.Fprintf(&b, "(ReCycle cells replayed at op granularity via internal/replay; baselines scalar)\n")
	for _, job := range config.Table1Jobs() {
		systems, ff, err := systemsFor(job)
		if err != nil {
			return nil, "", fmt.Errorf("experiments: %s: %w", job.Model.Name, err)
		}
		eng, stats, err := ReplayEngine(job, nil)
		if err != nil {
			return nil, "", fmt.Errorf("experiments: %s: %w", job.Model.Name, err)
		}
		opts := ReplayOptions(job, stats)
		fmt.Fprintf(&b, "\n%s (PP=%d DP=%d, fault-free %.2f)\n", job.Model.Name, job.Parallel.PP, job.Parallel.DP, ff)
		fmt.Fprintf(&b, "  %-6s %12s", "freq", "ReCycle")
		for _, s := range systems {
			fmt.Fprintf(&b, " %12s", s.Name())
		}
		fmt.Fprintln(&b)
		for _, freq := range config.Table1Frequencies() {
			tr := failure.Monotonic(job.Parallel.Workers(), freq, Horizon)
			rep, err := replay.Replay(eng, tr, opts)
			if err != nil {
				return nil, "", fmt.Errorf("experiments: %s %s: %w", job.Model.Name, freq, err)
			}
			row := Table1Row{Model: job.Model.Name, Frequency: freq, FaultFree: ff,
				Avg: map[string]float64{}, OOM: map[string]bool{}, ReCycle: summarizeReplay(rep)}
			row.Avg["ReCycle"] = rep.Average
			fmt.Fprintf(&b, "  %-6s %12.2f", shortDur(freq), rep.Average)
			for _, s := range systems {
				res := sim.Run(s, tr, Horizon)
				if res.OOM {
					row.OOM[s.Name()] = true
					fmt.Fprintf(&b, " %12s", "OOM")
					continue
				}
				row.Avg[s.Name()] = res.Average
				fmt.Fprintf(&b, " %12.2f", res.Average)
			}
			fmt.Fprintln(&b)
			rows = append(rows, row)
		}
	}
	return rows, b.String(), nil
}

func shortDur(d time.Duration) string {
	if d >= time.Hour {
		return fmt.Sprintf("%dh", int(d.Hours()))
	}
	return fmt.Sprintf("%dm", int(d.Minutes()))
}
