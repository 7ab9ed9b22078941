package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks that the committed BENCHMARK.json is exactly what
// the metric tables generate, and that the tables stay inside the limits of
// the builder contract.
func TestBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(committed) != string(benchmarkJSON()) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run -C bench . -spec > BENCHMARK.json`")
	}
	if len(committed) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(committed))
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Fatalf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.tail <= 0.5 || w.tail >= 1 || w.window < 1 || w.batch < 1 || w.retainAt < w.batch {
			t.Errorf("workload %s: bad tail/window/batch/retainAt", w.name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("metric %s: bad unit %q or direction %q", m.name, m.unit, m.better)
		}
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		if m.name == "setup_s" {
			hasSetup = m.unit == "s" && m.better == "lower"
			for _, o := range endToEnd {
				if o.bound > m.bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.name, o.bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	for _, m := range perLayer {
		name(m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
			t.Errorf("metric %s: bad unit %q or direction %q", m.name, m.unit, m.better)
		}
		if m.moves == "" {
			t.Errorf("metric %s: no predicted interaction recorded", m.name)
		}
	}
}

// lastLine decodes a result the way the driver reads it.
func lastLine(t *testing.T, r *result) (correct bool, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	data, err := json.Marshal(contractLine(r))
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if line.Attempted < 1 || line.Attempted != r.attempted || line.Failed != r.failed {
		t.Fatalf("attempted/failed %d/%d do not carry the result's %d/%d", line.Attempted, line.Failed, r.attempted, r.failed)
	}
	return line.Correct, line.Metrics
}

// TestSmoke drives all five workloads, untraced and traced, at smoke sizing
// and checks that exactly the declared names come out, nothing fails, and
// the kill overhead tiles. It uses a seed the numbers in the README were
// not developed on.
func TestSmoke(t *testing.T) {
	const seed = 7
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runOnce(w, seed, 0.15, smoke, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.samples == 0 {
				t.Fatalf("untraced: %d failed, %d samples: %v", res.failed, res.samples, res.errors)
			}
			correct, metrics := lastLine(t, res)
			if !correct || len(metrics) != len(endToEnd) {
				t.Fatalf("untraced: correct=%v, %d metrics, want %d", correct, len(metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m := metrics[d.name]; m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("untraced: %s = %v %q, want a positive number in %s", d.name, m.Value, m.Unit, d.unit)
				}
			}

			res, err = runOnce(w, seed, 0.15, smoke, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("traced: %d failed: %v", res.failed, res.errors)
			}
			correct, metrics = lastLine(t, res)
			if !correct {
				t.Error("traced: result is not correct")
			}
			declared := map[string]bool{}
			for _, d := range perLayer {
				declared[d.name] = true
				v, ok := res.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("traced: %s missing or not a number (%v)", d.name, v)
				}
			}
			for name := range res.metrics {
				if !declared[name] {
					t.Errorf("traced: %s is emitted but not declared in the tables", name)
				}
			}
			m := res.metrics
			if d := m["dtrain.kill_overhead_us"] - m["dtrain.ctl_resume_us"] - m["dtrain.kill_residual_us"]; math.Abs(d) > 1e-6 {
				t.Errorf("kill overhead does not tile: off by %v us", d)
			}
			if m["obs.tiling_violations"] != 0 {
				t.Error("critical paths do not tile")
			}
			if m["span.op_self_us"] <= 0 {
				t.Error("no op span recorded")
			}
			// A span exists exactly where the workload calls into the layer.
			for span, on := range map[string]string{"decode": "executor", "livesplice": "kill", "fetch_miss": "replay-cold"} {
				if got := m["span."+span+"_self_us"] > 0; got != (w.name == on) {
					t.Errorf("span %s present=%v on %s, want it only on %s", span, got, w.name, on)
				}
			}
		})
	}
}

// TestDeterministicInputs checks that a seed fixes the generated inputs and
// the outputs checked against them, and that another seed changes them.
func TestDeterministicInputs(t *testing.T) {
	inputs := func(r runner) string {
		switch r := r.(type) {
		case *kill:
			return fmt.Sprint(r.pool)
		case *replayer:
			return fmt.Sprint(r.pool)
		}
		t.Fatalf("no generated inputs known for %T", r)
		return ""
	}
	for _, name := range []string{"kill", "replay-warm"} {
		build := func(seed int64) runner {
			r, err := setup(name, seed, smoke, nil)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		a, b, other := build(3), build(3), build(4)
		if inputs(a) != inputs(b) {
			t.Errorf("%s: seed 3 generated two different inputs", name)
		}
		if inputs(a) == inputs(other) {
			t.Errorf("%s: seeds 3 and 4 generated the same inputs", name)
		}
		if ra, ok := a.(*replayer); ok {
			rb := b.(*replayer)
			for i := range ra.seen {
				if ra.seen[i] == nil || *ra.seen[i] != *rb.seen[i] {
					t.Errorf("%s: trace %d replayed to different digests under one seed", name, i)
				}
			}
		}
	}
}

// TestCorruptionIsCounted corrupts one output of each checker and expects
// exactly that op to be counted as failed.
func TestCorruptionIsCounted(t *testing.T) {
	t.Run("loss", func(t *testing.T) {
		r, err := setup("kill", 1, smoke, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := r.(*kill)
		for i := 0; i < 3; i++ {
			if _, err := k.op(nil); err != nil {
				t.Fatal(err)
			}
		}
		k.losses[3] = math.Nextafter(k.losses[3], 0) // op 1's post-rejoin loss, off by one ulp
		if got := k.verify(); got != 1 {
			t.Fatalf("verify counted %d failed ops, want 1", got)
		}
		if _, err := k.op(nil); err != nil {
			t.Fatal(err)
		}
		if got := k.verify(); got != 0 {
			t.Fatalf("verify counted %d failed ops after an honest op, want 0", got)
		}
	})
	t.Run("warm-up", func(t *testing.T) {
		s := &healthy{}
		if n := mismatches([]float64{1, 2, 3}, []float64{1, 2.0000000000000004, 3}); n != 1 {
			t.Fatalf("mismatches = %d, want 1", n)
		}
		s.first, s.last = 1, math.NaN()
		if s.finish() == nil {
			t.Fatal("a NaN final loss passed the end-of-run check")
		}
		s.last = 1.5
		if s.finish() == nil {
			t.Fatal("a final loss above the first passed the end-of-run check")
		}
	})
	t.Run("digest", func(t *testing.T) {
		r, err := setup("replay-warm", 1, smoke, nil)
		if err != nil {
			t.Fatal(err)
		}
		rp := r.(*replayer)
		for range rp.pool {
			if _, err := rp.op(nil); err != nil {
				t.Fatal(err)
			}
		}
		rp.pending[0].d.lostSlots++
		if got := rp.verify(); got != 1 {
			t.Fatalf("verify counted %d failed ops, want 1", got)
		}
	})
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v, want 2.75 8.25 5.5", q1, q3, median(xs))
	}
	if got := spread(xs); got != 1 {
		t.Fatalf("spread %v, want 1", got)
	}
}

// TestCompare checks the verdicts of -compare on synthetic runs.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64, failed int) string {
		s := savedRuns{Seconds: 1, Values: map[string]map[string][]float64{"steady": {
			"ops_per_s": {opsPerS, opsPerS * 1.01, opsPerS * 0.99},
			"op_ms_p50": {2, 2.01, 1.99},
		}}, Attempted: map[string]int{"steady": 10}, Failed: map[string]int{"steady": failed}}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.json", 600, 0)
	if err := compareFiles(parent, write("same.json", 590, 0)); err != nil {
		t.Errorf("a change inside the bound was rejected: %v", err)
	}
	if err := compareFiles(parent, write("faster.json", 900, 0)); err != nil {
		t.Errorf("a faster change was rejected: %v", err)
	}
	if err := compareFiles(parent, write("slower.json", 420, 0)); err == nil {
		t.Error("a change 30% slower passed")
	}
	if err := compareFiles(parent, write("failing.json", 600, 1)); err == nil {
		t.Error("a change with a failed op passed")
	}
}
