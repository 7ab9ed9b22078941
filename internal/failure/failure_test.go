package failure

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// TestMonotonic30mEndsAt20 reproduces the §6.2 workload arithmetic: 30m
// failures over 6h on 32 workers leave 20 available (62.5%).
func TestMonotonic30mEndsAt20(t *testing.T) {
	tr := Monotonic(32, 30*time.Minute, 6*time.Hour)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.At(6 * time.Hour); got != 20 {
		t.Fatalf("availability at 6h = %d, want 20", got)
	}
	if got := tr.At(0); got != 32 {
		t.Fatalf("availability at 0 = %d, want 32", got)
	}
	if got := tr.At(29 * time.Minute); got != 32 {
		t.Fatalf("availability before first failure = %d, want 32", got)
	}
}

// TestMonotonicIdentities pins the retrofitted machine identities: the
// monotonic workload retires the highest-numbered machine first, one per
// step, and the trace validates as identified.
func TestMonotonicIdentities(t *testing.T) {
	tr := Monotonic(8, time.Hour, 3*time.Hour)
	if !tr.Identified() {
		t.Fatal("Monotonic trace carries no machine identities")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][]int{nil, {7}, {6}, {5}}
	for i, s := range tr.Steps {
		if !reflect.DeepEqual([]int(s.Failed), want[i]) && !(len(s.Failed) == 0 && len(want[i]) == 0) {
			t.Fatalf("step %d failed machines %v, want %v", i, s.Failed, want[i])
		}
	}
}

// TestGCPEnvelope checks the Fig 9a trace reconstruction: 24 workers,
// minimum 15, with at least one re-join, carrying consistent canonical
// machine identities.
func TestGCPEnvelope(t *testing.T) {
	tr := GCP()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Total != 24 {
		t.Fatalf("GCP trace total = %d, want 24", tr.Total)
	}
	if got := tr.MinAvailable(); got != 15 {
		t.Fatalf("min availability = %d, want 15", got)
	}
	if !tr.Identified() {
		t.Fatal("GCP trace is not identified")
	}
	rejoins := 0
	for i := 1; i < len(tr.Steps); i++ {
		if tr.Steps[i].Available > tr.Steps[i-1].Available {
			rejoins++
		}
	}
	if rejoins < 3 {
		t.Fatalf("GCP trace has %d re-join events, want several", rejoins)
	}
}

// TestIdentifyCanonical pins the canonical identity rule: the highest
// live machine fails first, the most recently failed machine re-joins
// first, and initially-down machines are listed on the first step.
func TestIdentifyCanonical(t *testing.T) {
	tr := Trace{Name: "c", Total: 6, Steps: []Step{
		{At: 0, Available: 5},
		{At: time.Minute, Available: 3},
		{At: 2 * time.Minute, Available: 4},
		{At: 3 * time.Minute, Available: 6},
	}}
	id, err := tr.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if err := id.Validate(); err != nil {
		t.Fatal(err)
	}
	wantFailed := [][]int{{5}, {4, 3}, nil, nil}
	wantRejoined := [][]int{nil, nil, {3}, {4, 5}}
	for i, s := range id.Steps {
		if !sameInts(s.Failed, wantFailed[i]) || !sameInts(s.Rejoined, wantRejoined[i]) {
			t.Fatalf("step %d identities failed=%v rejoined=%v, want %v / %v",
				i, s.Failed, s.Rejoined, wantFailed[i], wantRejoined[i])
		}
	}
	// Identify is idempotent: re-deriving the already-identified trace
	// agrees event for event.
	again, err := id.Identify()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(id, again) {
		t.Fatalf("Identify not idempotent:\n%+v\nvs\n%+v", id, again)
	}
}

// TestValidateIdentities checks the identity consistency rules: IDs out of
// range, double failures, re-joins of live machines, count mismatches and
// partially identified traces are all rejected.
func TestValidateIdentities(t *testing.T) {
	base := func() Trace {
		return Trace{Name: "v", Total: 4, Steps: []Step{
			{At: 0, Available: 4},
			{At: time.Minute, Available: 3, Failed: []int{3}},
			{At: 2 * time.Minute, Available: 4, Rejoined: []int{3}},
		}}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid identified trace rejected: %v", err)
	}
	cases := map[string]func(*Trace){
		"id out of range":    func(tr *Trace) { tr.Steps[1].Failed = []int{4} },
		"double failure":     func(tr *Trace) { tr.Steps[2].Rejoined = nil; tr.Steps[2].Failed = []int{3}; tr.Steps[2].Available = 2 },
		"rejoin while up":    func(tr *Trace) { tr.Steps[2].Rejoined = []int{2} },
		"count mismatch":     func(tr *Trace) { tr.Steps[1].Available = 2 },
		"partial identities": func(tr *Trace) { tr.Steps[2].Rejoined = nil },
	}
	for name, mutate := range cases {
		tr := base()
		mutate(&tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: not rejected", name)
		}
	}
	// "double failure" above re-fails machine 3 while it is down.
	doubled := Trace{Name: "d", Total: 4, Steps: []Step{
		{At: 0, Available: 4},
		{At: time.Minute, Available: 3, Failed: []int{3}},
		{At: 2 * time.Minute, Available: 2, Failed: []int{3}},
	}}
	if err := doubled.Validate(); err == nil {
		t.Error("failing a down machine was not rejected")
	}
	// A t=0 re-join (even balanced by a same-step failure) would be
	// dropped by Windows' first window and desynchronize the replayer's
	// failure set.
	zeroSwap := Trace{Name: "z", Total: 4, Steps: []Step{
		{At: 0, Available: 4, Failed: []int{3}, Rejoined: []int{3}},
	}}
	if err := zeroSwap.Validate(); err == nil {
		t.Error("first-step re-join was not rejected")
	}
}

// TestCancelPairs checks the same-instant fail-and-repair normalization
// of PoissonMachines: a machine appearing in both lists of one merged
// step never effectively left, so the pair cancels and the others keep
// their order.
func TestCancelPairs(t *testing.T) {
	f, r := cancelPairs([]int{3, 5}, []int{3, 1})
	if !sameInts(f, []int{5}) || !sameInts(r, []int{1}) {
		t.Fatalf("cancelPairs = %v / %v, want [5] / [1]", f, r)
	}
	f, r = cancelPairs([]int{2}, []int{4})
	if !sameInts(f, []int{2}) || !sameInts(r, []int{4}) {
		t.Fatalf("disjoint lists changed: %v / %v", f, r)
	}
}

// TestPoissonMachinesDeterministic property-checks the per-machine
// Poisson generator: two runs with one seed agree step for step
// (including the machine identities), the trace validates as identified,
// and different seeds produce different timelines.
func TestPoissonMachinesDeterministic(t *testing.T) {
	check := func(seed int64) bool {
		a := PoissonMachines(16, 2*time.Hour, 30*time.Minute, 6*time.Hour, seed)
		b := PoissonMachines(16, 2*time.Hour, 30*time.Minute, 6*time.Hour, seed)
		if !reflect.DeepEqual(a, b) {
			return false
		}
		if !a.Identified() {
			return false
		}
		return a.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	a := PoissonMachines(16, 2*time.Hour, 30*time.Minute, 6*time.Hour, 1)
	b := PoissonMachines(16, 2*time.Hour, 30*time.Minute, 6*time.Hour, 2)
	if reflect.DeepEqual(a.Steps, b.Steps) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestPoissonMachinesIdentityPreserving checks the headline property of
// the per-machine processes: a machine that fails is the machine that
// later repairs — every re-join names a machine that is actually down —
// and with repair disabled each machine fails at most once, permanently.
func TestPoissonMachinesIdentityPreserving(t *testing.T) {
	tr := PoissonMachines(12, time.Hour, 20*time.Minute, 12*time.Hour, 42)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	repaired := 0
	for _, s := range tr.Steps {
		repaired += len(s.Rejoined)
	}
	if repaired == 0 {
		t.Fatal("12h of 20m repairs produced no re-join")
	}
	perm := PoissonMachines(12, time.Hour, 0, 12*time.Hour, 42)
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, s := range perm.Steps {
		if len(s.Rejoined) > 0 {
			t.Fatalf("repair disabled but machines re-joined at %v", s.At)
		}
		for _, id := range s.Failed {
			if seen[id] {
				t.Fatalf("machine %d failed twice with repair disabled", id)
			}
			seen[id] = true
		}
	}
}

// TestAverage checks time-weighted averaging.
func TestAverage(t *testing.T) {
	tr := Trace{Name: "t", Total: 10, Steps: []Step{
		{At: 0, Available: 10}, {At: 3 * time.Hour, Available: 5},
	}}
	if got := tr.Average(6 * time.Hour); got != 7.5 {
		t.Fatalf("average = %v, want 7.5", got)
	}
}

// TestAtMatchesLinearScan pins the binary-search At against the obvious
// linear reference on generated traces, probing exact step instants, the
// gaps between them, and both ends.
func TestAtMatchesLinearScan(t *testing.T) {
	linear := func(tr Trace, d time.Duration) int {
		avail := tr.Total
		for _, s := range tr.Steps {
			if s.At > d {
				break
			}
			avail = s.Available
		}
		return avail
	}
	check := func(seed int64) bool {
		tr := PoissonMachines(24, 40*time.Minute, time.Hour, 6*time.Hour, seed)
		probes := []time.Duration{0, time.Nanosecond, 3 * time.Hour, 6 * time.Hour, 7 * time.Hour}
		for _, s := range tr.Steps {
			probes = append(probes, s.At, s.At-time.Nanosecond, s.At+time.Nanosecond)
		}
		for _, d := range probes {
			if d < 0 {
				continue
			}
			if tr.At(d) != linear(tr, d) {
				t.Logf("seed %d: At(%v) = %d, linear says %d", seed, d, tr.At(d), linear(tr, d))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAtBoundaries pins the binary search at its edges: an event exactly
// at the query time must already be in effect (the step interval is
// closed on the left, [At, next.At)), and degenerate traces must degrade
// to the full fleet rather than panic or misindex.
func TestAtBoundaries(t *testing.T) {
	tr := Trace{Name: "b", Total: 8, Steps: []Step{
		{At: 0, Available: 8}, {At: 10 * time.Minute, Available: 6}, {At: 25 * time.Minute, Available: 7},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Exactly at an event: the new availability applies at that instant.
	if got := tr.At(10 * time.Minute); got != 6 {
		t.Fatalf("At(event instant) = %d, want 6 (step must be inclusive)", got)
	}
	if got := tr.At(25 * time.Minute); got != 7 {
		t.Fatalf("At(re-join instant) = %d, want 7", got)
	}
	// One tick either side of an event.
	if got := tr.At(10*time.Minute - time.Nanosecond); got != 8 {
		t.Fatalf("At(just before event) = %d, want 8", got)
	}
	if got := tr.At(10*time.Minute + time.Nanosecond); got != 6 {
		t.Fatalf("At(just after event) = %d, want 6", got)
	}
	// Exactly at t=0 (the first step's own boundary).
	if got := tr.At(0); got != 8 {
		t.Fatalf("At(0) = %d, want 8", got)
	}
	// Past the last event the final availability persists.
	if got := tr.At(48 * time.Hour); got != 7 {
		t.Fatalf("At(past horizon) = %d, want 7", got)
	}
	// An empty trace (no steps recorded) reports the planned fleet size:
	// sort.Search returns 0 on an empty slice and the i == 0 branch must
	// not index Steps[-1].
	empty := Trace{Name: "empty", Total: 5}
	if got := empty.At(0); got != 5 {
		t.Fatalf("empty trace At(0) = %d, want Total (5)", got)
	}
	if got := empty.At(time.Hour); got != 5 {
		t.Fatalf("empty trace At(1h) = %d, want Total (5)", got)
	}
}

// BenchmarkTraceAt guards the O(log steps) lookup: a dense 6h per-machine
// Poisson trace (about 10^5 steps) probed across the horizon. The former
// linear scan walked half the step list per query on average, thousands
// of times a binary search's 17 probes; regressions reintroducing it show
// up as a >100x blowup here.
func BenchmarkTraceAt(b *testing.B) {
	tr := PoissonMachines(208, 30*time.Second, time.Minute, 6*time.Hour, 11)
	b.Logf("trace has %d steps", len(tr.Steps))
	probe := make([]time.Duration, 1024)
	for i := range probe {
		probe[i] = time.Duration(i) * (6 * time.Hour) / time.Duration(len(probe))
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += tr.At(probe[i%len(probe)])
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// TestWindows checks the replayer's membership-window iterator: merged
// no-op steps, availabilities and canonical machine identities for
// failures vs re-joins, and horizon clipping.
func TestWindows(t *testing.T) {
	tr := Trace{Name: "w", Total: 8, Steps: []Step{
		{At: 0, Available: 8}, {At: 10 * time.Minute, Available: 6},
		{At: 20 * time.Minute, Available: 6}, {At: 30 * time.Minute, Available: 7},
	}}
	ws, err := tr.Windows(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	want := []Window{
		{Start: 0, End: 10 * time.Minute, Available: 8},
		{Start: 10 * time.Minute, End: 30 * time.Minute, Available: 6, Failed: []int{7, 6}},
		{Start: 30 * time.Minute, End: time.Hour, Available: 7, Rejoined: []int{6}},
	}
	if len(ws) != len(want) {
		t.Fatalf("got %d windows %v, want %d", len(ws), ws, len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(ws[i], want[i]) {
			t.Fatalf("window %d = %+v, want %+v", i, ws[i], want[i])
		}
	}
}

// TestWindowsIdentityStability checks that explicit machine identities
// survive Windows unchanged — the replayer sees exactly the machines the
// trace named, not a re-derivation — including on a same-availability
// swap step that a count-only iterator would merge away.
func TestWindowsIdentityStability(t *testing.T) {
	tr := Trace{Name: "s", Total: 6, Steps: []Step{
		{At: 0, Available: 6},
		{At: time.Minute, Available: 5, Failed: []int{2}},
		{At: 2 * time.Minute, Available: 5, Failed: []int{0}, Rejoined: []int{2}},
		{At: 3 * time.Minute, Available: 6, Rejoined: []int{0}},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	ws, err := tr.Windows(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("got %d windows %v, want 4 (the swap step is a membership event)", len(ws), ws)
	}
	if !sameInts(ws[1].Failed, []int{2}) {
		t.Fatalf("window 1 failed %v, want explicit [2] (not the canonical highest-ID pick)", ws[1].Failed)
	}
	if !sameInts(ws[2].Failed, []int{0}) || !sameInts(ws[2].Rejoined, []int{2}) || ws[2].Available != 5 {
		t.Fatalf("swap window = %+v, want failed [0] rejoined [2] available 5", ws[2])
	}
	if !sameInts(ws[3].Rejoined, []int{0}) {
		t.Fatalf("window 3 rejoined %v, want explicit [0]", ws[3].Rejoined)
	}
	// Stability across calls: the same trace windows identically.
	again, err := tr.Windows(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, again) {
		t.Fatal("Windows is not stable across calls")
	}
}

// TestWindowsInitialDown checks that a trace starting below the fleet
// total reports the initially-down machines on its first window.
func TestWindowsInitialDown(t *testing.T) {
	tr := Trace{Name: "i", Total: 4, Steps: []Step{{At: 0, Available: 2}}}
	ws, err := tr.Windows(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || !sameInts(ws[0].Failed, []int{3, 2}) {
		t.Fatalf("initial window = %+v, want machines [3 2] down from the outset", ws)
	}
}

// TestWindowsBoundaries pins the edge cases a replayer trips over:
// back-to-back events on adjacent instants, an event exactly at the
// horizon (dropped — the replay never enters it), a horizon cutting a
// window short, and invalid traces (re-join past the fleet total,
// non-increasing steps) rejected up front.
func TestWindowsBoundaries(t *testing.T) {
	// Back-to-back events one nanosecond apart each produce a window.
	bb := Trace{Name: "bb", Total: 4, Steps: []Step{
		{At: 0, Available: 4}, {At: time.Minute, Available: 3}, {At: time.Minute + time.Nanosecond, Available: 2},
	}}
	ws, err := bb.Windows(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("back-to-back events: got %d windows %v, want 3", len(ws), ws)
	}
	if ws[1].End-ws[1].Start != time.Nanosecond || ws[1].Available != 3 || ws[2].Available != 2 {
		t.Fatalf("back-to-back window wrong: %+v", ws[1:])
	}
	// An event exactly at the horizon is outside [0, horizon).
	ws, err = bb.Windows(time.Minute + time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 || ws[1].End != time.Minute+time.Nanosecond {
		t.Fatalf("horizon-instant event not dropped: %v", ws)
	}
	// A horizon inside the first window clips it.
	ws, err = bb.Windows(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || ws[0].End != 30*time.Second || ws[0].Available != 4 {
		t.Fatalf("clipped window wrong: %v", ws)
	}
	// A re-join past the fleet total is rejected.
	over := Trace{Name: "over", Total: 4, Steps: []Step{{At: 0, Available: 4}, {At: time.Minute, Available: 5}}}
	if _, err := over.Windows(time.Hour); err == nil {
		t.Fatal("re-join past the fleet total was not rejected")
	}
	// Non-increasing timestamps are rejected.
	dup := Trace{Name: "dup", Total: 4, Steps: []Step{
		{At: 0, Available: 4}, {At: time.Minute, Available: 3}, {At: time.Minute, Available: 2},
	}}
	if _, err := dup.Windows(time.Hour); err == nil {
		t.Fatal("duplicate step instant was not rejected")
	}
	if _, err := bb.Windows(0); err == nil {
		t.Fatal("zero horizon was not rejected")
	}
}

// TestFailureRate checks the Fig 10 percentage conversion.
func TestFailureRate(t *testing.T) {
	if got := FailureRate(2048, 10); got != 205 {
		t.Fatalf("10%% of 2048 = %d, want 205", got)
	}
	if got := FailureRate(256, 1); got != 3 {
		t.Fatalf("1%% of 256 = %d, want 3", got)
	}
	if got := FailureRate(10, 1); got != 1 {
		t.Fatalf("nonzero rate must fail at least one worker, got %d", got)
	}
}

// sameInts compares identity lists treating nil and empty as equal.
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
