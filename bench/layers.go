package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"recycle/internal/dtrain"
	"recycle/internal/engine"
	"recycle/internal/experiments"
	"recycle/internal/failure"
	"recycle/internal/obs"
	"recycle/internal/planstore"
	"recycle/internal/profile"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// prober takes the per-layer metrics: it times calls into each package's
// public functions from here, outside the packages. The probes do not
// depend on the workload; a traced run of any workload takes all of them,
// next to the self times of that workload's own spans.
type prober struct {
	sz    sizing
	seed  int64
	slice time.Duration // wall budget of one timed probe
	out   map[string]float64
	errs  []string // probe outputs that failed their check
}

// timedProbes is roughly how many slices the probes spend; the budget of a
// traced run is divided by it.
const timedProbes = 40

func (p *prober) failf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Sprintf(format, args...))
}

// timeUs calls fn until the probe's slice is spent, at least three times,
// and returns every call's duration in microseconds. fn's error aborts.
func (p *prober) timeUs(fn func() error) ([]float64, error) {
	var us []float64
	for start := time.Now(); len(us) < 3 || time.Since(start) < p.slice; {
		t0 := time.Now()
		err := fn()
		us = append(us, usSince(t0))
		if err != nil {
			return nil, err
		}
	}
	return us, nil
}

func usSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }

// allocsPer returns heap objects and bytes allocated per call of fn.
func allocsPer(n int, fn func() error) (objs, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err = fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n), nil
}

// probeLayers runs every probe and returns name -> value for each per-layer
// metric except the span self times and the workload's engine counters.
func probeLayers(sz sizing, seed int64, budget time.Duration) (map[string]float64, []string, error) {
	p := &prober{sz: sz, seed: seed, slice: budget / timedProbes, out: map[string]float64{}}
	for _, probe := range []func() error{p.planning, p.planService, p.interpreter, p.replays, p.inputs} {
		if err := probe(); err != nil {
			return nil, nil, err
		}
	}
	return p.out, p.errs, nil
}

// shapeCosts are the costs of one shape that the scaling exponents compare.
type shapeCosts struct{ instrs, solveUs, compileUs, execUs, spliceUs float64 }

// planning probes solver, schedule, sim and replay.LiveSplice at the live
// shape, and again at a small and a large shape for the log-log slopes.
func (p *prober) planning() error {
	sz := p.sz
	liveCosts, err := p.shape(sz.dp, sz.pp, sz.mb, true)
	if err != nil {
		return err
	}
	small, err := p.shape(sz.shapes[0][0], sz.shapes[0][1], sz.shapes[0][2], false)
	if err != nil {
		return err
	}
	large, err := p.shape(sz.shapes[2][0], sz.shapes[2][1], sz.shapes[2][2], false)
	if err != nil {
		return err
	}
	o := p.out
	o["schedule.instrs"] = liveCosts.instrs
	o["solver.solve_us"] = liveCosts.solveUs
	o["schedule.compile_us"] = liveCosts.compileUs
	o["schedule.compile_ns_per_instr"] = liveCosts.compileUs * 1e3 / liveCosts.instrs
	o["sim.exec_us"] = liveCosts.execUs
	o["sim.exec_ns_per_instr"] = liveCosts.execUs * 1e3 / liveCosts.instrs
	o["solver.solve_scale_exp"] = scaleExp(small.instrs, small.solveUs, large.instrs, large.solveUs)
	o["schedule.compile_scale_exp"] = scaleExp(small.instrs, small.compileUs, large.instrs, large.compileUs)
	o["sim.exec_scale_exp"] = scaleExp(small.instrs, small.execUs, large.instrs, large.execUs)
	o["replay.livesplice_scale_exp"] = scaleExp(small.instrs, small.spliceUs, large.instrs, large.spliceUs)
	return nil
}

func (p *prober) shape(dp, pp, mb int, quality bool) (shapeCosts, error) {
	var c shapeCosts
	job, stats := engine.ShapeJob(dp, pp, mb)
	victim := []schedule.Worker{{Stage: pp - 1, Pipeline: dp - 1}}
	var plan *engine.Plan
	us, err := p.timeUs(func() (err error) {
		pl := engine.NewPlanner(job, stats) // cold: no hint, no cache
		pl.UnrollIterations = 1
		plan, err = pl.PlanConcrete(victim)
		return err
	})
	if err != nil {
		return c, err
	}
	c.solveUs = median(us)
	var prog *schedule.Program
	if us, err = p.timeUs(func() (err error) { prog, err = schedule.Compile(plan.Schedule); return err }); err != nil {
		return c, err
	}
	c.compileUs, c.instrs = median(us), float64(len(prog.Instrs))
	if us, err = p.timeUs(func() error { _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{}); return err }); err != nil {
		return c, err
	}
	c.execUs = median(us)

	// Splice the healthy Program of this shape at one admissible kill.
	pl := engine.NewPlanner(job, stats)
	pl.UnrollIterations = 1
	healthy, err := pl.PlanConcrete(nil)
	if err != nil {
		return c, err
	}
	hprog, err := schedule.Compile(healthy.Schedule)
	if err != nil {
		return c, err
	}
	kills, _, err := drawKills(hprog, rand.New(rand.NewSource(p.seed)), 1)
	if err != nil {
		return c, err
	}
	ev := replay.LiveEvent{Prog: hprog, Cut: kills[0].cut, Fail: []schedule.Worker{kills[0].victim}}
	if us, err = p.timeUs(func() error { _, err := replay.LiveSplice(ev); return err }); err != nil {
		return c, err
	}
	c.spliceUs = median(us)
	if !quality {
		return c, nil
	}

	// Deterministic plan quality at the live shape, and the allocation
	// counts of the two per-instruction loops.
	o := p.out
	s := plan.Schedule
	o["solver.makespan_slots"] = float64(s.ComputeMakespan(0))
	o["solver.degraded_ratio"] = float64(s.ComputeMakespan(0)) / float64(healthy.Schedule.ComputeMakespan(0))
	o["solver.bubble_share"] = float64(s.BubbleSlots(0)) / float64(s.ComputeMakespan(0)*int64(len(s.Workers())))
	objs, _, err := allocsPer(20, func() error { _, err := schedule.Compile(s); return err })
	if err != nil {
		return c, err
	}
	o["schedule.compile_allocs_per_instr"] = objs / c.instrs
	if objs, _, err = allocsPer(20, func() error { _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{}); return err }); err != nil {
		return c, err
	}
	o["sim.exec_allocs_per_instr"] = objs / c.instrs
	if us, err = p.timeUs(prog.Validate); err != nil {
		return c, err
	}
	o["schedule.validate_us"] = median(us)
	return c, nil
}

// planService probes the codec, the engine's fetch paths, the fetch-only
// client and the replicated store, all at the live shape.
func (p *prober) planService() error {
	sz, o := p.sz, p.out
	job, stats := engine.ShapeJob(sz.dp, sz.pp, sz.mb)
	newEngine := func() (*engine.Engine, *planstore.Store, error) {
		store := planstore.New(3)
		eng := engine.New(job, stats, engine.Options{UnrollIterations: 1, Store: store})
		_, err := eng.ProgramFor(nil)
		return eng, store, err
	}
	eng, store, err := newEngine()
	if err != nil {
		return err
	}
	prog, err := eng.ProgramFor(nil)
	if err != nil {
		return err
	}
	instrs := float64(len(prog.Instrs))

	var data []byte
	us, err := p.timeUs(func() (err error) { data, err = engine.EncodeProgram(prog); return err })
	if err != nil {
		return err
	}
	o["engine.encode_us"] = median(us)
	o["engine.program_kb"] = float64(len(data)) / 1024
	decode := func() error { _, err := engine.DecodeProgram(data); return err }
	if us, err = p.timeUs(decode); err != nil {
		return err
	}
	o["engine.decode_us"] = median(us)
	objs, _, err := allocsPer(20, decode)
	if err != nil {
		return err
	}
	o["engine.decode_allocs_per_instr"] = objs / instrs

	if us, err = p.timeUs(func() error { _, err := eng.ProgramFor(nil); return err }); err != nil {
		return err
	}
	o["engine.fetch_hit_us"] = median(us)

	// A miss is a failure set the warm engine has not served: every single
	// victim, then every pair, then the same again on a fresh engine.
	var missEng *engine.Engine
	var sets []map[schedule.Worker]bool
	var missUs []float64
	for start := time.Now(); len(missUs) < 3 || time.Since(start) < p.slice; {
		if len(sets) == 0 {
			if missEng, _, err = newEngine(); err != nil {
				return err
			}
			sets = victimSets(prog.Workers(), sz.dp)
		}
		t0 := time.Now()
		_, err := missEng.ProgramFor(sets[0])
		missUs = append(missUs, usSince(t0))
		if err != nil {
			return err
		}
		sets = sets[1:]
	}
	o["engine.fetch_miss_us"] = median(missUs)

	client := engine.NewClient(store, job, stats, engine.Options{UnrollIterations: 1})
	if us, err = p.timeUs(func() error { _, err := client.ProgramFor(nil); return err }); err != nil {
		return err
	}
	o["engine.client_fetch_us"] = median(us)

	n := 0
	if us, err = p.timeUs(func() error { n++; return store.Put(fmt.Sprintf("bench/put/%d", n), data) }); err != nil {
		return err
	}
	o["planstore.put_us"] = median(us)
	if us, err = p.timeUs(func() error { _, _, err := store.Get("bench/put/1"); return err }); err != nil {
		return err
	}
	o["planstore.get_us"] = median(us)
	return nil
}

// victimSets lists every failure set of one or two workers that leaves each
// stage a live worker.
func victimSets(ws []schedule.Worker, dp int) []map[schedule.Worker]bool {
	var sets []map[schedule.Worker]bool
	if dp < 2 {
		return nil
	}
	for _, w := range ws {
		sets = append(sets, map[schedule.Worker]bool{w: true})
	}
	for i, a := range ws {
		for _, b := range ws[i+1:] {
			if a.Stage != b.Stage || dp > 2 {
				sets = append(sets, map[schedule.Worker]bool{a: true, b: true})
			}
		}
	}
	return sets
}

// interpreter probes the live runtime, the recorder's cost on it, and the
// failure path with its control-plane half re-driven call by call.
func (p *prober) interpreter() error {
	sz, o := p.sz, p.out
	cfg := sz.liveConfig(p.seed)
	plain, traced := dtrain.New(cfg), dtrain.New(cfg)
	rec := obs.NewTrace()
	traced.AttachRecorder(rec)
	for _, rt := range []*dtrain.Runtime{plain, traced} {
		if _, err := iterate(rt, 3); err != nil {
			return err
		}
	}
	prog, err := plain.Program()
	if err != nil {
		return err
	}
	instrs := float64(len(prog.Instrs))

	// Untraced and traced iterations alternate so both see the same machine.
	var plainUs, tracedUs []float64
	inTrace := 0
	for start := time.Now(); len(plainUs) < 3 || time.Since(start) < 4*p.slice; {
		if inTrace++; inTrace > sz.traceEvery {
			rec, inTrace = obs.NewTrace(), 1
			traced.AttachRecorder(rec)
		}
		for _, side := range []struct {
			rt *dtrain.Runtime
			us *[]float64
		}{{plain, &plainUs}, {traced, &tracedUs}} {
			t0 := time.Now()
			if _, err := side.rt.RunIteration(); err != nil {
				return err
			}
			*side.us = append(*side.us, usSince(t0))
		}
	}
	iterUs := median(plainUs)
	o["dtrain.iter_us"] = iterUs
	o["dtrain.interp_ns_per_instr"] = iterUs * 1e3 / instrs
	o["obs.trace_overhead_pct"] = (median(tracedUs)/iterUs - 1) * 100
	o["obs.trace_tail_overhead_pct"] = (percentile(tracedUs, 0.95)/percentile(plainUs, 0.95) - 1) * 100

	// One fresh trace over a known number of iterations: allocation per
	// iteration with and without the recorder, the share of the iteration's
	// core-time spent inside compute ops, and the critical-path audit.
	iters := min(sz.traceEvery, 20)
	rec = obs.NewTrace()
	traced.AttachRecorder(rec)
	t0 := time.Now()
	_, tracedBytes, err := allocsPer(iters, func() error { _, err := traced.RunIteration(); return err })
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	objs, plainBytes, err := allocsPer(iters, func() error { _, err := plain.RunIteration(); return err })
	if err != nil {
		return err
	}
	o["dtrain.allocs_per_instr"] = objs / instrs
	o["obs.trace_kb_per_iter"] = (tracedBytes - plainBytes) / 1024
	var compute time.Duration
	segs := rec.Segments()
	for _, g := range segs {
		for _, s := range g.Spans() {
			compute += s.Actual
		}
	}
	o["dtrain.compute_share"] = float64(compute) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	us, err := p.timeUs(func() error { _, err := obs.CriticalPath(segs[len(segs)-1]); return err })
	if err != nil {
		return err
	}
	o["obs.critpath_us"] = median(us)
	o["obs.tiling_violations"] = 0
	if _, err := obs.AuditCriticalPaths(rec); err != nil {
		o["obs.tiling_violations"] = 1
		p.failf("critical paths do not tile: %v", err)
	}
	return p.kills(plain, traced, prog, iterUs)
}

func (p *prober) kills(plain, traced *dtrain.Runtime, prog *schedule.Program, iterUs float64) error {
	sz, o := p.sz, p.out
	pool, admissible, err := drawKills(prog, rand.New(rand.NewSource(p.seed)), sz.killPool)
	if err != nil {
		return err
	}
	o["replay.admissible_cut_share"] = admissible
	job, stats := engine.ShapeJob(sz.dp, sz.pp, sz.mb)
	opts := engine.Options{UnrollIterations: 1, Store: planstore.New(3)}
	coord := engine.New(job, stats, opts)
	client := engine.NewClient(opts.Store, job, stats, opts)

	var failUs, rejoinUs, postUs, spliceUs, publishUs, fetchUs, cutUs, resumeUs []float64
	var kept, all, lost, rerouted float64
	n := 0
	for start := time.Now(); n < 3 || time.Since(start) < 8*p.slice; n++ {
		k := pool[n%len(pool)]
		victims := []schedule.Worker{k.victim}

		t0 := time.Now()
		if _, err := plain.RunIterationFailure(victims, k.cut); err != nil {
			return fmt.Errorf("kill %v at slot %d: %w", k.victim, k.cut, err)
		}
		failUs = append(failUs, usSince(t0))
		t0 = time.Now()
		if err := plain.Rejoin(k.victim); err != nil {
			return err
		}
		rejoinUs = append(rejoinUs, usSince(t0))
		t0 = time.Now()
		if _, err := plain.RunIteration(); err != nil {
			return err
		}
		postUs = append(postUs, usSince(t0))

		// The control-plane half of the same kill, re-driven from outside:
		// splice, publish, and the fetch a remote executor would make.
		t0 = time.Now()
		lv, err := replay.LiveSplice(replay.LiveEvent{Prog: prog, Cut: k.cut, Fail: victims})
		if err != nil {
			return err
		}
		spliceUs = append(spliceUs, usSince(t0))
		kept += float64(lv.PrefixOps)
		all += float64(lv.PrefixOps + lv.SuffixOps)
		lost += float64(lv.LostOps)
		rerouted += float64(lv.ReroutedOps)
		event := dtrain.SpliceEventID(n, k.cut, victims, nil)
		t0 = time.Now()
		if err := coord.PublishSplicedProgram(event, lv.Program); err != nil {
			return err
		}
		publishUs = append(publishUs, usSince(t0))
		t0 = time.Now()
		if _, err := client.SplicedProgram(event); err != nil {
			return err
		}
		fetchUs = append(fetchUs, usSince(t0))

		// The two DES executions a splice is made of.
		t0 = time.Now()
		if _, err := sim.ExecuteProgram(prog, sim.ProgramOptions{CutAt: k.cut, FailAt: map[schedule.Worker]int64{k.victim: k.cut}}); err != nil {
			return err
		}
		cutUs = append(cutUs, usSince(t0))
		t0 = time.Now()
		if _, err := sim.ExecuteProgram(lv.Program, sim.ProgramOptions{Done: lv.Done, ReleaseAt: lv.Floors}); err != nil {
			return err
		}
		resumeUs = append(resumeUs, usSince(t0))
	}
	kills := float64(n)
	o["dtrain.fail_iter_us"] = median(failUs)
	o["dtrain.rejoin_us"] = median(rejoinUs)
	o["dtrain.post_rejoin_iter_us"] = median(postUs)
	o["replay.livesplice_us"] = median(spliceUs)
	o["replay.livesplice_ns_per_instr"] = median(spliceUs) * 1e3 / float64(len(prog.Instrs))
	o["replay.kept_share"] = kept / all
	o["replay.lost_ops_per_splice"] = lost / kills
	o["replay.rerouted_ops_per_splice"] = rerouted / kills
	o["engine.publish_us"] = median(publishUs)
	o["engine.spliced_fetch_us"] = median(fetchUs)
	o["sim.cut_exec_us"] = median(cutUs)
	o["sim.resume_exec_us"] = median(resumeUs)
	// The shares tile by construction: what the re-driven control plane
	// does not explain is reported as the residual, never hidden.
	o["dtrain.kill_overhead_us"] = o["dtrain.fail_iter_us"] - iterUs
	o["dtrain.ctl_resume_us"] = o["replay.livesplice_us"] + o["engine.publish_us"]
	o["dtrain.kill_residual_us"] = o["dtrain.kill_overhead_us"] - o["dtrain.ctl_resume_us"]
	o["engine.remote_resume_us"] = o["dtrain.ctl_resume_us"] + o["engine.spliced_fetch_us"]

	// Re-sends and idempotent step no-ops per kill, from the repo's own
	// recorder on the traced twin.
	rec := obs.NewTrace()
	traced.AttachRecorder(rec)
	counted := min(len(pool), 8)
	for _, k := range pool[:counted] {
		if _, err := traced.RunIterationFailure([]schedule.Worker{k.victim}, k.cut); err != nil {
			return err
		}
		if err := traced.Rejoin(k.victim); err != nil {
			return err
		}
	}
	c := rec.Counters()
	o["dtrain.resends_per_kill"] = float64(c["events."+obs.EvResend.String()]) / float64(counted)
	o["dtrain.step_noops_per_kill"] = float64(c["events."+obs.EvStepNoop.String()]) / float64(counted)

	t0 := time.Now()
	chaos, err := dtrain.Chaos(sz.liveConfig(p.seed), dtrain.ChaosOptions{Seed: p.seed, Iterations: 3, KillIter: 1, Victims: 1, Cascade: 2})
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	o["dtrain.chaos_run_ms"] = usSince(t0) / 1e3
	if !chaos.BitwiseEqual() {
		p.failf("chaos run diverged from its fault-free reference: %v vs %v", chaos.Losses, chaos.RefLosses)
	}
	return nil
}

// replays probes trace replay: per-event cost on a warm engine, and the
// ROADMAP's GCP anchor on both Fig 9 jobs, cold then warm, once each.
func (p *prober) replays() error {
	sz, o := p.sz, p.out
	job := sz.fig9Job(0)
	pool, err := tracePool(job, p.seed, sz)
	if err != nil {
		return err
	}
	eng, stats, err := experiments.ReplayEngine(job, nil)
	if err != nil {
		return err
	}
	opt := experiments.ReplayOptions(job, stats)
	opt.Horizon = sz.traceHorizon
	var res *replay.Result
	us, err := p.timeUs(func() (err error) { res, err = replay.Replay(eng, pool[0], opt); return err })
	if err != nil {
		return err
	}
	events := float64(len(res.Events))
	o["replay.event_ms"] = median(us[1:]) / 1e3 / events // the first call filled the caches
	o["replay.stall_s_per_event"] = res.StallSeconds / events
	o["replay.avg_samples_per_s"] = res.Average

	gcp := failure.GCP()
	for i, name := range []string{"medium", "6_7b"} {
		job := sz.fig9Job(i)
		eng, stats, err := experiments.ReplayEngine(job, nil)
		if err != nil {
			return err
		}
		opt := experiments.ReplayOptions(job, stats)
		opt.Horizon = sz.gcpHorizon
		for _, temp := range []string{"cold", "warm"} {
			t0 := time.Now()
			if res, err = replay.Replay(eng, gcp, opt); err != nil {
				return fmt.Errorf("gcp %s: %w", name, err)
			}
			o["replay.gcp_"+name+"_"+temp+"_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
		}
		if i == 0 {
			o["replay.gcp_iterations"] = float64(res.Iterations)
			o["replay.gcp_spliced"] = float64(res.SplicedCount())
		}
	}
	return nil
}

// inputs probes the generators and profiles set-up is made of.
func (p *prober) inputs() error {
	sz, o := p.sz, p.out
	job := sz.fig9Job(0)
	n := job.Parallel.DP * job.Parallel.PP
	var tr failure.Trace
	us, err := p.timeUs(func() error {
		tr = failure.PoissonMachines(n, 8*time.Hour, 30*time.Minute, sz.traceHorizon, p.seed)
		return nil
	})
	if err != nil {
		return err
	}
	o["failure.gen_us"] = median(us)
	if us, err = p.timeUs(func() error { _, err := tr.Windows(sz.traceHorizon); return err }); err != nil {
		return err
	}
	o["failure.windows_us"] = median(us)
	var stats profile.Stats
	if us, err = p.timeUs(func() (err error) { stats, err = profile.Analytic(job); return err }); err != nil {
		return err
	}
	o["profile.analytic_us"] = median(us)
	if us, err = p.timeUs(func() error { _, err := profile.CalibratedCost(job, stats); return err }); err != nil {
		return err
	}
	o["profile.calibrated_cost_us"] = median(us)
	return nil
}
