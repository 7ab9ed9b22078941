package dtrain

import (
	"fmt"
	"strings"
	"testing"
)

// TestChaosBitwiseLosses is the acceptance matrix for the chaos-ready
// interpreter: seeded kills at every kill-point class, with one or two
// victims, across pipeline depths — every run must produce bitwise-equal
// per-iteration losses against its fault-free reference. Short mode (the
// CI chaos-smoke step runs it under -race) keeps one seed and a reduced
// case set.
func TestChaosBitwiseLosses(t *testing.T) {
	type shape struct{ pp, victims int }
	shapes := []shape{{2, 1}, {2, 2}, {4, 1}, {4, 2}}
	points := []KillPoint{KillAtSend, KillBetweenOps, KillDuringAllReduce, KillInEpilogue}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		shapes = []shape{{2, 1}, {4, 2}}
		seeds = []int64{1}
	}
	for _, sh := range shapes {
		for _, pt := range points {
			for _, seed := range seeds {
				sh, pt, seed := sh, pt, seed
				t.Run(fmt.Sprintf("pp%d_v%d_%s_seed%d", sh.pp, sh.victims, pt, seed), func(t *testing.T) {
					t.Parallel()
					cfg := Config{
						DP: 2, PP: sh.pp, MB: 4,
						InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
						Seed: 11, LR: 1e-2,
					}
					res, err := Chaos(cfg, ChaosOptions{
						Seed: seed, Iterations: 3, KillIter: 1,
						Victims: sh.victims, Point: pt,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Victims) != sh.victims {
						t.Fatalf("killed %d workers, want %d", len(res.Victims), sh.victims)
					}
					kill := res.Kills[0]
					if kill.Cut < 1 {
						t.Fatalf("kill landed at slot %d, not mid-iteration", kill.Cut)
					}
					if kill.Event == "" {
						t.Fatal("no splice event recorded")
					}
					if !res.BitwiseEqual() {
						t.Fatalf("losses diverge from fault-free run:\nchaos %v\nref   %v\n(victims %v, cut %d)",
							res.Losses, res.RefLosses, res.Victims, kill.Cut)
					}
				})
			}
		}
	}
}

// TestChaosRejectsDegenerateOptions pins the harness guards: impossible
// victim counts, inverted iteration bounds and fleets with no killable
// worker are rejected up front.
func TestChaosRejectsDegenerateOptions(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	if _, err := Chaos(cfg, ChaosOptions{Seed: 1, Iterations: 1, KillIter: 1, Victims: 1}); err == nil {
		t.Fatal("kill iteration beyond the run was accepted")
	}
	if _, err := Chaos(cfg, ChaosOptions{Seed: 1, Iterations: 2, KillIter: 0, Victims: 0}); err == nil {
		t.Fatal("zero victims was accepted")
	}
	// A 2x2 fleet keeping every stage live can lose at most 2 workers.
	if _, err := Chaos(cfg, ChaosOptions{Seed: 1, Iterations: 2, KillIter: 0, Victims: 3}); err == nil {
		t.Fatal("more victims than the fleet can survive was accepted")
	}
	solo := cfg
	solo.DP = 1
	if _, err := Chaos(solo, ChaosOptions{Seed: 1, Iterations: 2, KillIter: 0, Victims: 1}); err == nil {
		t.Fatal("killing the only replica of a stage was accepted")
	}
}

// TestChaosBlackBoxIsBounded checks the black box a chaos run records
// into when the caller gives it no recorder: however long the run, it
// keeps only the newest obs.FlightSegments segments, the last iteration's.
func TestChaosBlackBoxIsBounded(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	res, err := Chaos(cfg, ChaosOptions{Seed: 1, Iterations: 12, KillIter: 5, Victims: 1, Cascade: 2})
	if err != nil {
		t.Fatal(err)
	}
	segs := res.Trace.Segments()
	if len(segs) > 2 || segs[len(segs)-1].Label != "iter11" {
		t.Fatalf("black box holds %d segments ending %q, want at most 2 ending iter11", len(segs), segs[len(segs)-1].Label)
	}
	if dump := res.Trace.Dump(); !strings.HasPrefix(dump, "flight recorder: last 2 segments") {
		t.Fatalf("dump header: %q", strings.SplitN(dump, "\n", 2)[0])
	}
}

// TestChaosErrorCarriesOneDump checks that a chaos error carries the
// flight recorder's dump exactly once, whether the iteration failed or its
// kills could not be planned.
func TestChaosErrorCarriesOneDump(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	// Three victims cannot be drawn from a 2x2 fleet: planning fails after
	// two iterations ran.
	_, err := Chaos(cfg, ChaosOptions{Seed: 1, Iterations: 3, KillIter: 2, Victims: 3})
	if err == nil {
		t.Fatal("more victims than the fleet can survive was accepted")
	}
	if n := strings.Count(err.Error(), "flight recorder:"); n != 1 || !strings.Contains(err.Error(), "begin iter1") {
		t.Fatalf("planning error carries %d dumps:\n%v", n, err)
	}
}

// TestKillPointRoundTrip pins the CLI spelling of the kill points.
func TestKillPointRoundTrip(t *testing.T) {
	for _, pt := range []KillPoint{KillAtSend, KillBetweenOps, KillDuringAllReduce, KillInEpilogue} {
		got, err := ParseKillPoint(pt.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != pt {
			t.Fatalf("round trip %s -> %s", pt, got)
		}
	}
	if _, err := ParseKillPoint("never"); err == nil {
		t.Fatal("unknown kill point accepted")
	}
}
