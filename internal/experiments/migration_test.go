package experiments

import (
	"reflect"
	"testing"
	"time"

	"recycle/internal/config"
	"recycle/internal/failure"
	"recycle/internal/replay"
)

// TestMigrationMonotoneInFailureFrequency pins the acceptance criterion
// for the migration metric: replaying the Table 1 monotonic workloads at
// increasing failure frequency can only move more state — the per-job
// migration counts are monotone non-decreasing from 6h to 30m — and the
// normalization baseline charges exactly one parameter copy per failure.
func TestMigrationMonotoneInFailureFrequency(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon replays are slow")
	}
	rows, _, err := migrationOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(config.Table1Frequencies()) {
		t.Fatalf("got %d rows, want one per Table 1 frequency", len(rows))
	}
	for i, r := range rows {
		if r.NormalizationCopies != r.Failures {
			t.Errorf("%s: normalization copies %d != failures %d", r.Frequency, r.NormalizationCopies, r.Failures)
		}
		if i == 0 {
			continue
		}
		prev := rows[i-1]
		if r.Frequency >= prev.Frequency {
			t.Fatalf("rows not ordered most-frequent-last: %v after %v", r.Frequency, prev.Frequency)
		}
		if r.MigratedTriples < prev.MigratedTriples {
			t.Errorf("migrations not monotone in failure frequency: %d at %v < %d at %v",
				r.MigratedTriples, r.Frequency, prev.MigratedTriples, prev.Frequency)
		}
		if r.Failures < prev.Failures {
			t.Errorf("failure count not monotone: %d at %v < %d at %v",
				r.Failures, r.Frequency, prev.Failures, prev.Frequency)
		}
	}
	// The most frequent workload must actually move state and stall.
	last := rows[len(rows)-1]
	if last.MigratedTriples == 0 || last.ReroutedOps == 0 {
		t.Errorf("30m failures migrated nothing: %+v", last)
	}
	if last.ReplayStallSeconds <= 0 {
		t.Errorf("30m failures produced no emergent stall: %+v", last)
	}
}

// TestTable1CellGolden is the deterministic golden test for a Table 1
// cell computed via replay.Replay: the GPT-3 Medium 30m cell reproduces a
// stable outcome across two fully independent computations (fresh
// engines, fresh caches), every membership event is a failure named by a
// trace machine identity, and the throughput sits below fault-free.
func TestTable1CellGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-horizon replays are slow")
	}
	job := config.Table1Jobs()[0] // GPT-3 Medium
	freq := 30 * time.Minute
	res, err := Table1Cell(job, freq)
	if err != nil {
		t.Fatal(err)
	}
	// 6h of 30m failures: 11 failure events inside [0, 6h).
	if len(res.Events) != 11 {
		t.Fatalf("got %d events, want 11", len(res.Events))
	}
	for i, ev := range res.Events {
		if ev.Kind != "fail" || len(ev.Machines) != 1 {
			t.Fatalf("event %d = %+v, want a single-machine failure", i, ev)
		}
		if want := job.Parallel.Workers() - 1 - i; ev.Machines[0] != want {
			t.Fatalf("event %d failed machine %d, want %d (monotonic retires the highest ID first)", i, ev.Machines[0], want)
		}
	}
	if res.Iterations == 0 || res.Average <= 0 {
		t.Fatalf("degenerate replay: %+v", res)
	}
	if res.MigratedTriples == 0 {
		t.Fatal("30m failures migrated no micro-batch triples")
	}
	_, ff, err := systemsFor(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Average >= ff {
		t.Fatalf("replay average %.2f should sit below fault-free %.2f", res.Average, ff)
	}
	again, err := Table1Cell(job, freq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("Table 1 cell is not deterministic:\n%+v\nvs\n%+v", res, again)
	}
}

// Table1Cell recomputes one ReCycle cell of Table 1 from scratch: a fresh
// replay engine (empty plan caches), the monotonic trace for freq, one
// replay over the full horizon. Every step is deterministic, so two calls
// agree event for event — the golden test pins that.
func Table1Cell(job config.Job, freq time.Duration) (*replay.Result, error) {
	eng, stats, err := ReplayEngine(job, nil)
	if err != nil {
		return nil, err
	}
	tr := failure.Monotonic(job.Parallel.Workers(), freq, Horizon)
	return replay.Replay(eng, tr, ReplayOptions(job, stats))
}
