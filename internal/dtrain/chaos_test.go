package dtrain

import (
	"fmt"
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
					if res.Cut < 1 {
						t.Fatalf("kill landed at slot %d, not mid-iteration", res.Cut)
					}
					if res.Event == "" {
						t.Fatal("no splice event recorded")
					}
					if !res.BitwiseEqual() {
						t.Fatalf("losses diverge from fault-free run:\nchaos %v\nref   %v\n(victims %v, cut %d)",
							res.Losses, res.RefLosses, res.Victims, res.Cut)
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
