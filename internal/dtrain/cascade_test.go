package dtrain

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// sweepConfig is the small shape the differential kill sweep runs on.
func sweepConfig() Config {
	return Config{
		DP: 2, PP: 2, MB: 2,
		InDim: 4, Hidden: 6, OutDim: 2, MicroBatchSize: 2,
		Seed: 5, LR: 1e-2,
	}
}

// runDifferential trains a fresh runtime pair for iters iterations,
// injecting the cascade mid-iteration killIter and restoring the victims at
// the next boundary; every iteration's loss must match the fault-free
// reference bitwise.
func runDifferential(t *testing.T, cfg Config, iters, killIter int, events []CascadeEvent, victims []schedule.Worker) {
	t.Helper()
	rt, ref := New(cfg), New(cfg)
	for it := 0; it < iters; it++ {
		if it == killIter+1 {
			for _, v := range victims {
				if err := rt.Rejoin(v); err != nil {
					t.Fatalf("rejoin %s: %v", v, err)
				}
			}
		}
		var evs []CascadeEvent
		if it == killIter {
			evs = events
		}
		loss, err := rt.RunIteration(evs...)
		if err != nil {
			t.Fatalf("chaos iteration %d (events %+v): %v", it, events, err)
		}
		refLoss, err := ref.RunIteration()
		if err != nil {
			t.Fatalf("reference iteration %d: %v", it, err)
		}
		if loss != refLoss {
			t.Fatalf("iteration %d (events %+v): loss %.17g diverged from reference %.17g", it, events, loss, refLoss)
		}
	}
}

// TestChaosKillSweepEveryClass is the exhaustive half of the differential
// suite: for each kill-point class — including the all-reduce epilogue —
// it enumerates every admissible kill instant against the compiled Program
// and runs each one as its own differential experiment. Every sweep entry
// must keep the loss trajectory bitwise equal to the fault-free reference;
// the sweep also proves each class is non-empty on this shape (the
// epilogue class exists only because the pre-first-optimizer kill
// restriction is gone).
func TestChaosKillSweepEveryClass(t *testing.T) {
	cfg := sweepConfig()
	prog, err := New(cfg).Program()
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	points := []KillPoint{KillAtSend, KillBetweenOps, KillDuringAllReduce, KillInEpilogue}
	for _, victim := range []schedule.Worker{
		{Stage: 0, Pipeline: 1},
		{Stage: 1, Pipeline: 1},
	} {
		victims := []schedule.Worker{victim}
		for _, point := range points {
			point := point
			t.Run(fmt.Sprintf("%s/%s", victim, point), func(t *testing.T) {
				cands := killCandidates(prog, full, victims, point, 0, false, cfg.PP)
				if len(cands) == 0 {
					t.Fatalf("no admissible %s kill instant for victim %s", point, victim)
				}
				if testing.Short() && len(cands) > 3 {
					cands = []int64{cands[0], cands[len(cands)/2], cands[len(cands)-1]}
				}
				for _, cut := range cands {
					runDifferential(t, cfg, 3, 1,
						[]CascadeEvent{{Cut: cut, Fail: victims}}, victims)
				}
			})
		}
	}
}

// TestChaosCascadeDepthMatrix drives the public Chaos harness across
// cascade depths 1-3, every kill-point class and several seeds: each run
// must stay bitwise loss-equal to its fault-free reference, the first kill
// must land on the requested class, and the cascade's cuts must be
// strictly increasing with a published splice event per kill.
func TestChaosCascadeDepthMatrix(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 2, MB: 3,
		InDim: 4, Hidden: 6, OutDim: 2, MicroBatchSize: 2,
		Seed: 9, LR: 1e-2,
	}
	points := []KillPoint{KillAtSend, KillBetweenOps, KillDuringAllReduce, KillInEpilogue}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for depth := 1; depth <= 3; depth++ {
		for _, point := range points {
			for _, seed := range seeds {
				depth, point, seed := depth, point, seed
				t.Run(fmt.Sprintf("depth=%d/%s/seed=%d", depth, point, seed), func(t *testing.T) {
					res, err := Chaos(cfg, ChaosOptions{
						Seed: seed, Iterations: 3, KillIter: 1,
						Victims: 1, Point: point, Cascade: depth,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !res.BitwiseEqual() {
						t.Fatalf("losses diverged:\nchaos: %v\nref:   %v", res.Losses, res.RefLosses)
					}
					if len(res.Kills) < 1 || len(res.Kills) > depth {
						t.Fatalf("got %d kills for a depth-%d cascade", len(res.Kills), depth)
					}
					if res.Kills[0].Point != point {
						t.Errorf("first kill landed on %s, requested %s", res.Kills[0].Point, point)
					}
					var prev int64
					for i, k := range res.Kills {
						if k.Cut <= prev {
							t.Errorf("kill %d cut %d does not follow previous cut %d", i, k.Cut, prev)
						}
						prev = k.Cut
						if k.Event == "" {
							t.Errorf("kill %d has no published splice event", i)
						}
						if len(k.Victims) != 1 {
							t.Errorf("kill %d has %d victims, want 1", i, len(k.Victims))
						}
					}
				})
			}
		}
	}
}

// TestChaosCascadeGolden pins one seeded 2-kill cascade end to end: the
// run is deterministic (two invocations agree on kills and losses), the
// kill iteration leaves pre-splice, mid-splice and post-splice trace
// segments whose critical paths tile their makespans, and the two splice
// cuts partition the final timeline into three windows.
func TestChaosCascadeGolden(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 2, MB: 3,
		InDim: 4, Hidden: 6, OutDim: 2, MicroBatchSize: 2,
		Seed: 9, LR: 1e-2,
	}
	run := func() (*ChaosResult, *obs.Trace) {
		tr := obs.NewTrace()
		res, err := Chaos(cfg, ChaosOptions{
			Seed: 7, Iterations: 3, KillIter: 1,
			Victims: 1, Point: KillBetweenOps, Cascade: 2,
			Recorder: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, tr
	}
	res, tr := run()
	again, _ := run()

	if !res.BitwiseEqual() {
		t.Fatalf("losses diverged:\nchaos: %v\nref:   %v", res.Losses, res.RefLosses)
	}
	if len(res.Kills) != 2 {
		t.Fatalf("want a full depth-2 cascade on this shape, got %d kills: %+v", len(res.Kills), res.Kills)
	}
	if res.Kills[1].Cut <= res.Kills[0].Cut {
		t.Fatalf("cascade cuts not increasing: %+v", res.Kills)
	}
	// Same seed, same config: the whole experiment replays identically.
	if len(again.Kills) != len(res.Kills) {
		t.Fatalf("re-run produced %d kills, first run %d", len(again.Kills), len(res.Kills))
	}
	for i := range res.Kills {
		a, b := res.Kills[i], again.Kills[i]
		if a.Cut != b.Cut || a.Point != b.Point || len(a.Victims) != len(b.Victims) || a.Victims[0] != b.Victims[0] {
			t.Fatalf("kill %d not deterministic: %+v vs %+v", i, a, b)
		}
	}
	for i := range res.Losses {
		if res.Losses[i] != again.Losses[i] {
			t.Fatalf("iteration %d loss not deterministic: %.17g vs %.17g", i, res.Losses[i], again.Losses[i])
		}
	}

	// The kill iteration's three phases each left a segment whose critical
	// path tiles the makespan exactly (the PR9 audit, now spanning a
	// doubly-spliced trace).
	labels := []string{"iter1/pre-splice", "iter1/mid-splice-1", "iter1/post-splice"}
	for _, label := range labels {
		seg := tr.Segment(label)
		if seg == nil {
			var have []string
			for _, g := range tr.Segments() {
				have = append(have, g.Label)
			}
			t.Fatalf("missing trace segment %q; have %v", label, have)
		}
		rep, err := obs.CriticalPath(seg)
		if err != nil {
			t.Fatalf("critical path of %q: %v", label, err)
		}
		if !rep.Tiles() {
			t.Errorf("critical path of %q does not tile: %s", label, rep)
		}
	}

	// Two splices, two cuts, three windows on the final timeline.
	cuts := obs.SpliceCuts(tr.Events())
	if len(cuts) != 2 {
		t.Fatalf("trace has %d splice cuts, want 2", len(cuts))
	}
	if cuts[0] != res.Kills[0].Cut || cuts[1] != res.Kills[1].Cut {
		t.Errorf("splice cuts %v disagree with kills %+v", cuts, res.Kills)
	}
	wins := obs.SpliceWindows(tr.Segment("iter1/post-splice"), cuts)
	if len(wins) != 3 {
		t.Fatalf("SpliceWindows produced %d windows, want 3", len(wins))
	}
	// Each kill leaves two EvKill records: the membership change (Fail)
	// and the timeline event at the cut.
	c := tr.Counters()
	if c["events.kill"] != 2*int64(len(res.Kills)) {
		t.Errorf("trace counted %d kill events, want %d", c["events.kill"], 2*len(res.Kills))
	}
	if c["events.splice"] != 2 {
		t.Errorf("trace counted %d splice events, want 2", c["events.splice"])
	}
}

// TestChaosEpochAgreementLiveVsDES kills a victim inside the all-reduce
// epilogue and checks the step-epoch bookkeeping on both sides of the
// live/DES mirror: every live worker's stamp advances exactly once per
// iteration, the victim's stamp advances iff its stage's step became
// durable before the cut, the executed timeline's optimizer completions
// agree with the live stamps worker by worker, and the boundary rejoin
// restores the victim to the donor's epoch.
func TestChaosEpochAgreementLiveVsDES(t *testing.T) {
	cfg := sweepConfig()
	rt, ref := New(cfg), New(cfg)
	if _, err := rt.RunIteration(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.RunIteration(); err != nil {
		t.Fatal(err)
	}
	workers := make([]schedule.Worker, 0, cfg.DP*cfg.PP)
	for k := 0; k < cfg.DP; k++ {
		for s := 0; s < cfg.PP; s++ {
			workers = append(workers, schedule.Worker{Stage: s, Pipeline: k})
		}
	}
	for _, w := range workers {
		if got := rt.StageStepEpoch(w); got != 1 {
			t.Fatalf("worker %s epoch %d after one healthy iteration, want 1", w, got)
		}
	}

	prog, err := rt.Program()
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	victim := schedule.Worker{Stage: 1, Pipeline: 1}
	cands := killCandidates(prog, full, []schedule.Worker{victim}, KillInEpilogue, 0, false, cfg.PP)
	if len(cands) == 0 {
		t.Fatal("no epilogue kill instant on the sweep shape")
	}
	cut := cands[len(cands)-1] // the latest epilogue instant: most durable steps

	// Which stages' steps are durable at the cut, under the cut-execution
	// semantics (in-flight victim work is killed at the cut)?
	completed := func(i int, c int64) bool {
		if full.Start[i] < 0 || full.Start[i] >= c {
			return false
		}
		if prog.Op(i).Worker() == victim {
			return full.End[i] <= c
		}
		return true
	}
	optTotal := make(map[int]int)
	optDone := make(map[int]int)
	for i := range prog.Instrs {
		op := prog.Op(i)
		if op.Type != schedule.Optimizer {
			continue
		}
		optTotal[op.Stage]++
		if completed(i, cut) {
			optDone[op.Stage]++
		}
	}
	durable := make(map[int]bool)
	anyDurable := false
	for s, n := range optTotal {
		durable[s] = optDone[s] == n
		anyDurable = anyDurable || durable[s]
	}
	if !anyDurable {
		t.Fatalf("cut %d is not an epilogue instant: no durable step", cut)
	}

	loss, err := rt.RunIteration(CascadeEvent{Cut: cut, Fail: []schedule.Worker{victim}})
	if err != nil {
		t.Fatal(err)
	}
	refLoss, err := ref.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if loss != refLoss {
		t.Fatalf("epilogue-kill loss %.17g diverged from reference %.17g", loss, refLoss)
	}

	// Live stamps: everyone stepped exactly once more, except a victim
	// whose stage had not stepped durably before it died.
	for _, w := range workers {
		want := 2
		if w == victim && !durable[w.Stage] {
			want = 1
		}
		if got := rt.StageStepEpoch(w); got != want {
			t.Errorf("worker %s epoch %d after epilogue-kill iteration, want %d (durable=%v)",
				w, got, want, durable[w.Stage])
		}
	}

	// DES agreement: optimizer completions on the executed timeline equal
	// each worker's live epoch delta — the frozen durable step counts, a
	// non-durable victim step does not.
	exProg, starts, ends := rt.ExecutedTimeline()
	ex := &sim.Execution{Program: exProg, Start: starts, End: ends}
	des := ex.StepEpochs()
	for _, w := range workers {
		if got, want := des[w], rt.StageStepEpoch(w)-1; got != want {
			t.Errorf("DES counts %d steps for %s, live stamp advanced by %d", got, w, want)
		}
	}

	// The boundary restore copies the donor's parameters and epoch.
	if err := rt.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	if got := rt.StageStepEpoch(victim); got != 2 {
		t.Errorf("rejoined victim epoch %d, want the donor's 2", got)
	}
	loss, err = rt.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	refLoss, err = ref.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if loss != refLoss {
		t.Fatalf("post-rejoin loss %.17g diverged from reference %.17g", loss, refLoss)
	}
}

// TestChaosStepNoopSkipsRendezvous drives the optimizer apply path with a
// stage whose stamp already covers the target epoch — the re-delivered
// step of a re-executed suffix. The call must return without touching the
// parameters, the router, or the stamp, and must record EvStepNoop.
func TestChaosStepNoopSkipsRendezvous(t *testing.T) {
	cfg := sweepConfig()
	rt := New(cfg)
	tr := obs.NewTrace()
	rt.AttachRecorder(tr)
	rt.captureEpochBase()
	w := schedule.Worker{Stage: 0, Pipeline: 0}
	st := rt.stages[w]
	st.SetStepEpoch(rt.epochBase[rt.workerIndex(w)] + 1) // iteration 0's step already applied
	before := make([][]float64, 0, len(st.Params()))
	for _, p := range st.Params() {
		before = append(before, append([]float64(nil), p.W.Data...))
	}
	r := testRouter(schedule.Shape{DP: cfg.DP, PP: cfg.PP, MB: cfg.MB, Iter: 1})
	// The no-op path returns before any rendezvous, so the bare router —
	// no peers running — must not deadlock this call.
	if err := rt.allReduceAndStep(w, st, 0, r, func(schedule.OpType, time.Duration) {}); err != nil {
		t.Fatal(err)
	}
	for pi, p := range st.Params() {
		for i, v := range p.W.Data {
			if before[pi][i] != v {
				t.Fatalf("re-delivered step perturbed param %d[%d]", pi, i)
			}
		}
	}
	if got := st.StepEpoch(); got != rt.epochBase[rt.workerIndex(w)]+1 {
		t.Errorf("no-op advanced the stamp to %d", got)
	}
	if got := r.held(); got != 0 {
		t.Errorf("no-op stashed %d payloads; the rendezvous must be skipped entirely", got)
	}
	if got := tr.Counters()["events.step-noop"]; got != 1 {
		t.Errorf("recorded %d step-noop events, want 1", got)
	}
}

// TestRejectedEventsLeaveRuntimeUntouched pins plan-before-run: an event
// list the splice chain rejects — even at its second event, after a first
// event that splices fine — must fail before a single instruction runs.
// The failure set and iteration counter stay put and the next three losses
// are bitwise those of a twin runtime that never saw the call. An event whose
// digest names a splice other than the one the runtime derives is refused
// the same way, as ErrForeignProgram. (A cut
// straddling an optimizer group is rejected by the same LiveSplice call;
// unit-cost steps leave no such instant to aim a live kill at, so it is
// pinned at the replay layer.)
func TestRejectedEventsLeaveRuntimeUntouched(t *testing.T) {
	w := func(stage, pipeline int) []schedule.Worker {
		return []schedule.Worker{{Stage: stage, Pipeline: pipeline}}
	}
	cases := []struct {
		name    string
		down    []schedule.Worker // failed at the boundary before the call
		events  []CascadeEvent
		foreign bool // refused as ErrForeignProgram
	}{
		{"second kill wipes a stage", nil, []CascadeEvent{{Cut: 2, Fail: w(0, 1)}, {Cut: 4, Fail: w(0, 0)}}, false},
		{"non-monotone cuts", nil, []CascadeEvent{{Cut: 4, Fail: w(0, 1)}, {Cut: 3, Fail: w(1, 1)}}, false},
		{"unknown rejoiner", nil, []CascadeEvent{{Cut: 2, Fail: w(0, 1)}, {Cut: 4, Rejoin: w(1, 1)}}, false},
		{"victim already dead", nil, []CascadeEvent{{Cut: 2, Fail: w(0, 1)}, {Cut: 4, Fail: w(0, 1)}}, false},
		{"swap leaves no donor", w(0, 0), []CascadeEvent{{Cut: 2, Fail: w(0, 1), Rejoin: w(0, 0)}}, false},
		{"cut before the first slot", nil, []CascadeEvent{{Cut: 0, Fail: w(0, 1)}}, false},
		// Digest 1 stands for any digest but the derived splice's.
		{"digest names another splice", nil, []CascadeEvent{{Cut: 2, Fail: w(0, 1), Digest: 1}}, true},
		{"second digest names another splice", nil, []CascadeEvent{{Cut: 2, Fail: w(0, 1)}, {Cut: 4, Fail: w(1, 0), Digest: 1}}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := sweepConfig()
			rt, ref := New(cfg), New(cfg)
			for _, r := range []*Runtime{rt, ref} {
				if _, err := r.RunIteration(); err != nil {
					t.Fatal(err)
				}
				for _, v := range tc.down {
					r.Fail(v)
				}
			}
			failed, iter := rt.FailedCount(), rt.Iteration()
			_, err := iterateWatched(t, rt, tc.events...)
			if err == nil {
				t.Fatalf("events %+v were accepted", tc.events)
			}
			if errors.Is(err, ErrForeignProgram) != tc.foreign {
				t.Fatalf("events %+v: error %v, ErrForeignProgram %v", tc.events, err, tc.foreign)
			}
			if rt.FailedCount() != failed || rt.Iteration() != iter {
				t.Fatalf("rejected call moved the runtime: %d failed at iteration %d, was %d at %d",
					rt.FailedCount(), rt.Iteration(), failed, iter)
			}
			for i := 0; i < 3; i++ {
				loss, err := iterateWatched(t, rt)
				if err != nil {
					t.Fatalf("iteration %d after the rejected call: %v", i, err)
				}
				refLoss, err := ref.RunIteration()
				if err != nil {
					t.Fatal(err)
				}
				if loss != refLoss {
					t.Fatalf("iteration %d after the rejected call: loss %.17g, untouched twin %.17g", i, loss, refLoss)
				}
			}
		})
	}
}
