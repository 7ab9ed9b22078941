package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"recycle/internal/config"
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

// sizing holds every fixed size of the benchmark. full is what the numbers
// in BENCHMARK.json are measured at; smoke shrinks shapes and counts so
// the test can drive every code path in seconds (its numbers mean nothing).
type sizing struct {
	dp, pp, mb   int // live shape
	warmup       int // checked warm-up iterations per live runtime
	killPool     int // admissible (victim, cut) pairs drawn in set-up
	tracePool    int // distinct availability traces, replayed round-robin
	traceHorizon time.Duration
	shapes       [3][3]int // S/M/L probe shapes (DP, PP, MB)
	gcpHorizon   time.Duration
	replayMB     int // micro-batches per pipeline of the replayed jobs; 0 keeps the paper's batch
	setups       int // set-ups per untraced run; setup_s is their median
	traceEvery   int // iterations per obs.Trace before a fresh one is attached
}

var (
	full = sizing{
		dp: 4, pp: 4, mb: 8, warmup: 50, killPool: 128,
		tracePool: 8, traceHorizon: time.Hour,
		shapes:     [3][3]int{{3, 4, 6}, {4, 8, 16}, {8, 8, 32}},
		gcpHorizon: experiments.Horizon, setups: 3, traceEvery: 100,
	}
	smoke = sizing{
		dp: 2, pp: 2, mb: 4, warmup: 4, killPool: 6,
		tracePool: 2, traceHorizon: 30 * time.Minute,
		shapes:     [3][3]int{{2, 2, 2}, {2, 2, 4}, {2, 3, 6}},
		gcpHorizon: 40 * time.Minute, replayMB: 6, setups: 2, traceEvery: 3,
	}
)

func (sz sizing) liveConfig(seed int64) dtrain.Config {
	return dtrain.Config{
		DP: sz.dp, PP: sz.pp, MB: sz.mb,
		InDim: 8, Hidden: 16, OutDim: 4, MicroBatchSize: 4,
		Seed: seed, LR: 1e-2,
	}
}

// fig9Job returns one of the two 24-machine jobs of Fig 9: 0 is GPT-3 Medium,
// DP12 x PP2, the job both replay workloads run; 1 is GPT-3 6.7B, DP3 x PP8.
// Smoke sizing shrinks the batch to replayMB micro-batches per pipeline.
func (sz sizing) fig9Job(i int) config.Job {
	job := experiments.Figure9Jobs()[i]
	if sz.replayMB > 0 {
		job.Batch.GlobalBatch = job.Batch.MicroBatch * job.Parallel.DP * sz.replayMB
	}
	return job
}

// runner is one set-up workload. op runs the next operation and returns the
// wall time attributed to it; verify checks every op since the last call
// and returns how many failed; finish runs the end-of-run check; metrics
// reports the plan service counters of the engine the ops went through.
type runner interface {
	op(tr *tracer) (time.Duration, error)
	verify() int
	finish() error
	metrics() engine.Metrics
	// warm reports the checked operations set-up ran and how many failed.
	warm() (attempted, failed int)
}

func setup(name string, seed int64, sz sizing, tr *tracer) (runner, error) {
	switch name {
	case "steady":
		return setupSteady(seed, sz, tr)
	case "executor":
		return setupExecutor(seed, sz, tr)
	case "kill":
		return setupKill(seed, sz, tr)
	case "replay-cold":
		return setupReplay(seed, sz, tr, false)
	case "replay-warm":
		return setupReplay(seed, sz, tr, true)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// mismatches counts positions at which two loss sequences differ bitwise.
func mismatches(got, want []float64) int {
	n := 0
	for i := range got {
		if i >= len(want) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			n++
		}
	}
	return n
}

// iterate runs n fault-free iterations and returns their losses.
func iterate(rt *dtrain.Runtime, n int) ([]float64, error) {
	losses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		l, err := rt.RunIteration()
		if err != nil {
			return nil, err
		}
		losses = append(losses, l)
	}
	return losses, nil
}

// live is the part steady, executor and kill share: the runtime under test,
// its warm-up tally, and the repo's recorder re-attached every traceEvery
// iterations on a traced pass (an obs.Trace grows without bound).
type live struct {
	rt                  *dtrain.Runtime
	warmN, warmFailed   int
	first, last         float64
	traced              bool
	traceEvery, inTrace int
	rec                 *obs.Trace
}

func (l *live) warm() (int, int)        { return l.warmN, l.warmFailed }
func (l *live) metrics() engine.Metrics { return l.rt.PlanMetrics() }

// rotate attaches a fresh obs.Trace once the current one holds traceEvery
// iterations. Called between iterations only, when no executor goroutine
// is reading the recorder.
func (l *live) rotate(iters int) {
	if !l.traced {
		return
	}
	if l.rec == nil || l.inTrace >= l.traceEvery {
		l.rec, l.inTrace = obs.NewTrace(), 0
		l.rt.AttachRecorder(l.rec)
	}
	l.inTrace += iters
}

// finish is the end-of-run sanity check of a training run: the last loss is
// finite and below the first.
func (l *live) finish() error {
	if math.IsNaN(l.last) || math.IsInf(l.last, 0) || l.last >= l.first {
		return fmt.Errorf("training did not converge: first loss %g, last %g", l.first, l.last)
	}
	return nil
}

// warmAgainst runs the checked warm-up: rt's first warmup losses must equal
// the reference's bit for bit.
func (l *live) warmAgainst(ref []float64) error {
	l.rotate(len(ref))
	got, err := iterate(l.rt, len(ref))
	if err != nil {
		return err
	}
	l.warmN, l.warmFailed = len(ref), mismatches(got, ref)
	l.first, l.last = got[0], got[len(got)-1]
	return nil
}

func (l *live) iteration(tr *tracer, name string) (float64, time.Duration, error) {
	l.rotate(1)
	sp := tr.begin(name, "dtrain")
	t0 := time.Now()
	loss, err := l.rt.RunIteration()
	d := time.Since(t0)
	tr.end(sp)
	return loss, d, err
}

// ---- steady and executor ----

// healthy runs fault-free iterations; steady and executor differ only in
// where set-up points the runtime's Program fetches.
type healthy struct{ live }

func (h *healthy) op(tr *tracer) (time.Duration, error) {
	root := tr.begin("op", "bench")
	loss, d, err := h.iteration(tr, "iter")
	tr.end(root)
	h.last = loss
	return d, err
}

func (h *healthy) verify() int { return 0 }

func setupSteady(seed int64, sz sizing, tr *tracer) (runner, error) {
	cfg := sz.liveConfig(seed)
	ref, err := iterate(dtrain.New(cfg), sz.warmup)
	if err != nil {
		return nil, err
	}
	s := &healthy{live{rt: dtrain.New(cfg), traced: tr != nil, traceEvery: sz.traceEvery}}
	return s, s.warmAgainst(ref)
}

// benchProgramKey is where the traced executor's source keeps its copy of
// the healthy Program: engine.Client derives its key privately, so the
// traced source stores the same bytes under a key of its own and performs
// the same two calls (Get, DecodeProgram) with a span around each.
const benchProgramKey = "bench/program/healthy"

type tracedSource struct {
	store *planstore.Store
	tr    *tracer
}

func (s tracedSource) ProgramFor(failed map[schedule.Worker]bool) (*schedule.Program, error) {
	if len(failed) != 0 {
		return nil, fmt.Errorf("traced executor source holds only the healthy program")
	}
	sp := s.tr.begin("get", "planstore")
	data, ok, err := s.store.Get(benchProgramKey)
	s.tr.end(sp)
	if err != nil || !ok {
		return nil, fmt.Errorf("traced executor fetch: found=%v: %v", ok, err)
	}
	sp = s.tr.begin("decode", "engine")
	p, err := engine.DecodeProgram(data)
	s.tr.end(sp)
	return p, err
}

func setupExecutor(seed int64, sz sizing, tr *tracer) (runner, error) {
	cfg := sz.liveConfig(seed)
	cfg.Store = planstore.New(3)
	// The coordinator compiles and replicates the Program, and its losses
	// are the reference the fetch-only executor must reproduce.
	coord := dtrain.New(cfg)
	ref, err := iterate(coord, sz.warmup)
	if err != nil {
		return nil, err
	}
	e := &healthy{live{rt: dtrain.New(cfg), traced: tr != nil, traceEvery: sz.traceEvery}}
	if tr == nil {
		job, stats := engine.ShapeJob(cfg.DP, cfg.PP, cfg.MB)
		e.rt.SetProgramSource(engine.NewClient(cfg.Store, job, stats, engine.Options{UnrollIterations: 1}))
	} else {
		prog, err := coord.Program()
		if err != nil {
			return nil, err
		}
		data, err := engine.EncodeProgram(prog)
		if err != nil {
			return nil, err
		}
		if err := cfg.Store.Put(benchProgramKey, data); err != nil {
			return nil, err
		}
		e.rt.SetProgramSource(tracedSource{cfg.Store, tr})
	}
	return e, e.warmAgainst(ref)
}

// ---- kill ----

type killPoint struct {
	victim schedule.Worker
	cut    int64
}

// drawKills draws n admissible (victim, cut) pairs from rng over every
// worker and every cut in [1, makespan). A pair is admissible when a
// planning-only replay.LiveSplice accepts it - the runtime rejects by
// design a cut that splits a stage's optimizer step. It returns the pairs
// and the share of draws accepted.
func drawKills(prog *schedule.Program, rng *rand.Rand, n int) ([]killPoint, float64, error) {
	ex, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
	if err != nil {
		return nil, 0, err
	}
	if ex.Makespan < 2 {
		return nil, 0, fmt.Errorf("program makespan %d leaves no cut to draw", ex.Makespan)
	}
	workers := prog.Workers()
	var pool []killPoint
	draws := 0
	for len(pool) < n {
		if draws++; draws > 100*n {
			return nil, 0, fmt.Errorf("only %d of %d draws were admissible cuts", len(pool), draws)
		}
		k := killPoint{workers[rng.Intn(len(workers))], 1 + rng.Int63n(ex.Makespan-1)}
		if _, err := replay.LiveSplice(replay.LiveEvent{Prog: prog, Cut: k.cut, Fail: []schedule.Worker{k.victim}}); err == nil {
			pool = append(pool, k)
		}
	}
	return pool, float64(len(pool)) / float64(draws), nil
}

type kill struct {
	live
	shadow *dtrain.Runtime
	prog   *schedule.Program
	pool   []killPoint
	next   int
	losses []float64 // kill-iteration and post-rejoin losses since the last verify
	// coordStore is a store of the benchmark's own into which the traced
	// pass re-publishes each kill's spliced Program (the runtime's engine is
	// not reachable from outside); published counts its keys.
	coordStore *planstore.Store
	published  int
}

func setupKill(seed int64, sz sizing, tr *tracer) (runner, error) {
	cfg := sz.liveConfig(seed)
	k := &kill{live: live{rt: dtrain.New(cfg), traced: tr != nil, traceEvery: sz.traceEvery}, shadow: dtrain.New(cfg)}
	ref, err := iterate(k.shadow, sz.warmup)
	if err != nil {
		return nil, err
	}
	if err := k.warmAgainst(ref); err != nil {
		return nil, err
	}
	if k.prog, err = k.rt.Program(); err != nil {
		return nil, err
	}
	k.pool, _, err = drawKills(k.prog, rand.New(rand.NewSource(seed)), sz.killPool)
	if tr != nil {
		k.coordStore = planstore.New(3)
	}
	return k, err
}

// op kills one worker mid-iteration. Only the kill iteration is the timed
// operation; the rejoin and the healthy iteration after it restore the
// fleet for the next op and are checked, but timed only as spans.
func (k *kill) op(tr *tracer) (time.Duration, error) {
	p := k.pool[k.next%len(k.pool)]
	k.next++
	victims := []schedule.Worker{p.victim}
	root := tr.begin("op", "bench")
	defer tr.end(root)
	if tr != nil {
		if err := k.redriveControlPlane(tr, p); err != nil {
			return 0, err
		}
	}
	k.rotate(1)
	sp := tr.begin("fail_iter", "dtrain")
	t0 := time.Now()
	lossKill, err := k.rt.RunIterationFailure(victims, p.cut)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return d, fmt.Errorf("kill %v at slot %d: %w", p.victim, p.cut, err)
	}
	sp = tr.begin("rejoin", "dtrain")
	err = k.rt.Rejoin(p.victim)
	tr.end(sp)
	if err != nil {
		return d, err
	}
	lossPost, _, err := k.iteration(tr, "post_iter")
	k.losses = append(k.losses, lossKill, lossPost)
	k.last = lossPost
	return d, err
}

// redriveControlPlane repeats, with a span around each public call, what
// RunIterationFailure does before it resumes: splice the healthy Program at
// the cut, then publish the result (encode + quorum put).
func (k *kill) redriveControlPlane(tr *tracer, p killPoint) error {
	sp := tr.begin("livesplice", "replay")
	lv, err := replay.LiveSplice(replay.LiveEvent{Prog: k.prog, Cut: p.cut, Fail: []schedule.Worker{p.victim}})
	tr.end(sp)
	if err != nil {
		return err
	}
	pub := tr.begin("publish", "engine")
	defer tr.end(pub)
	sp = tr.begin("encode", "engine")
	data, err := engine.EncodeProgram(lv.Program)
	tr.end(sp)
	if err != nil {
		return err
	}
	k.published++
	sp = tr.begin("put", "planstore")
	err = k.coordStore.Put(fmt.Sprintf("bench/spliced/%d", k.published), data)
	tr.end(sp)
	return err
}

// verify advances the shadow fault-free runtime by the iterations the
// runtime under test ran since the last call and compares every loss; a
// loss that differs fails the op it belongs to (two losses per op).
func (k *kill) verify() int {
	ops := len(k.losses) / 2
	want, err := iterate(k.shadow, len(k.losses))
	failed := 0
	for i := 0; i < ops; i++ {
		if err != nil || mismatches(k.losses[2*i:2*i+2], want[2*i:2*i+2]) > 0 {
			failed++
		}
	}
	k.losses = k.losses[:0]
	return failed
}

// ---- replay-cold / replay-warm ----

// digest is what two replays of one trace must agree on. No golden values:
// a repeat is compared with the first replay of the same trace.
type digest struct {
	iterations, events, spliced, migrated int
	average, stall                        uint64 // float bits
	lostSlots                             int64
}

func digestOf(r *replay.Result) digest {
	return digest{
		iterations: r.Iterations, events: len(r.Events), spliced: r.SplicedCount(),
		migrated: r.MigratedTriples, lostSlots: r.LostSlots,
		average: math.Float64bits(r.Average), stall: math.Float64bits(r.StallSeconds),
	}
}

// tracePool builds the availability traces both replay workloads replay,
// for a two-stage job. A seeded permutation of the pipelines is cut into
// groups of three, p q r, and each group becomes two traces over machines
// A, B, C: one with A and C in stage 0 of p and r and B in stage 1 of q,
// and its mirror with the stages swapped. In each, A fails, B fails, A
// re-joins, C fails, B re-joins, C re-joins, at seeded instants spread over
// the horizon. The seed decides which pipelines fail and when; the shape -
// six events, at most two machines down, never two in one pipeline, every
// machine in exactly one trace - is the same for every seed, so the plan
// service's working set and the cost of an op do not depend on the draw.
// (Pools of failure.PoissonMachines traces did: 30 to 40 distinct failure
// sets and 140 to 190 MB retained, seed to seed.) The pool is bounded on
// purpose: every concrete failure set stays cached for the life of an engine.
func tracePool(job config.Job, seed int64, sz sizing) ([]failure.Trace, error) {
	dp, pp := job.Parallel.DP, job.Parallel.PP
	if pp != 2 || sz.tracePool > 2*(dp/3) {
		return nil, fmt.Errorf("the trace pool needs a two-stage job with three pipelines per pair of traces, got DP%d x PP%d for %d traces", dp, pp, sz.tracePool)
	}
	rng := rand.New(rand.NewSource(seed))
	pipes := rng.Perm(dp)
	slot := sz.traceHorizon / 7
	pool := make([]failure.Trace, sz.tracePool)
	for i := range pool {
		g, mirror := pipes[3*(i/2):3*(i/2)+3], i%2
		a, b, c := pp*g[0]+mirror, pp*g[1]+1-mirror, pp*g[2]+mirror // machine pp*k+s hosts stage s of pipeline k
		tr := failure.Trace{Name: fmt.Sprintf("churn-%d-%d", seed, i), Total: dp * pp, Steps: []failure.Step{{Available: dp * pp}}}
		for k, ev := range []struct{ fail, rejoin []int }{{fail: []int{a}}, {fail: []int{b}}, {rejoin: []int{a}}, {fail: []int{c}}, {rejoin: []int{b}}, {rejoin: []int{c}}} {
			// Event k lands in the middle 80% of its own seventh of the horizon.
			at := time.Duration((float64(k) + 0.1 + 0.8*rng.Float64()) * float64(slot))
			avail := tr.Steps[k].Available - len(ev.fail) + len(ev.rejoin)
			tr.Steps = append(tr.Steps, failure.Step{At: at, Available: avail, Failed: ev.fail, Rejoined: ev.rejoin})
		}
		if err := tr.Validate(); err != nil {
			return nil, err
		}
		// replay.Replay fails on a trace that empties a stage; that would be
		// the generator's failure, not the program's.
		if !stagesStayLive(tr, dp, pp, sz.traceHorizon) {
			return nil, fmt.Errorf("trace %s leaves a pipeline stage without a live machine", tr.Name)
		}
		pool[i] = tr
	}
	return pool, nil
}

func stagesStayLive(tr failure.Trace, dp, pp int, horizon time.Duration) bool {
	for _, set := range failureSets(tr, pp, horizon) {
		perStage := make([]int, pp)
		for w := range set {
			if perStage[w.Stage]++; perStage[w.Stage] >= dp {
				return false
			}
		}
	}
	return true
}

// failureSets returns the failed-worker set of every membership window of
// the trace, in order; nil when the trace does not validate.
func failureSets(tr failure.Trace, pp int, horizon time.Duration) []map[schedule.Worker]bool {
	wins, err := tr.Windows(horizon)
	if err != nil {
		return nil
	}
	down := make(map[schedule.Worker]bool)
	var sets []map[schedule.Worker]bool
	for _, w := range wins {
		for _, id := range w.Rejoined {
			delete(down, replay.MachineWorker(id, pp))
		}
		for _, id := range w.Failed {
			down[replay.MachineWorker(id, pp)] = true
		}
		set := make(map[schedule.Worker]bool, len(down))
		for k := range down {
			set[k] = true
		}
		sets = append(sets, set)
	}
	return sets
}

type replayer struct {
	job     config.Job
	opt     replay.Options
	pool    []failure.Trace
	seen    []*digest // first digest of each pooled trace
	pending []pendingDigest
	next    int
	shared  *engine.Engine // the pre-warmed engine; nil on replay-cold
	lastEng *engine.Engine

	warmN, warmFailed int
	traced            bool
}

type pendingDigest struct {
	trace int
	d     digest
}

func setupReplay(seed int64, sz sizing, tr *tracer, warm bool) (runner, error) {
	r := &replayer{job: sz.fig9Job(0), traced: tr != nil}
	stats, err := profile.Analytic(r.job)
	if err != nil {
		return nil, err
	}
	r.opt = experiments.ReplayOptions(r.job, stats)
	r.opt.Horizon = sz.traceHorizon
	if r.pool, err = tracePool(r.job, seed, sz); err != nil {
		return nil, err
	}
	r.seen = make([]*digest, len(r.pool))
	pilot := 1 // replay-cold proves on one trace that the job replays
	if warm {
		if r.shared, _, err = experiments.ReplayEngine(r.job, nil); err != nil {
			return nil, err
		}
		pilot = len(r.pool) // replay-warm fills the engine's caches with every trace
	}
	for i := 0; i < pilot; i++ {
		if _, err := r.op(nil); err != nil {
			return nil, err
		}
	}
	r.warmN, r.warmFailed = pilot, r.verify()
	r.next = 0
	return r, nil
}

func (r *replayer) op(tr *tracer) (time.Duration, error) {
	i := r.next % len(r.pool)
	r.next++
	root := tr.begin("op", "bench")
	defer tr.end(root)
	t0 := time.Now()
	eng := r.shared
	if eng == nil {
		sp := tr.begin("engine_new", "profile")
		var err error
		eng, _, err = experiments.ReplayEngine(r.job, nil)
		tr.end(sp)
		if err != nil {
			return time.Since(t0), err
		}
	}
	opt := r.opt
	if r.traced {
		opt.Recorder = obs.NewTrace() // the repo's own recorder, fresh per op
	}
	sp := tr.begin("replay", "replay")
	res, err := replay.Replay(eng, r.pool[i], opt)
	tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("replay of %s: %w", r.pool[i].Name, err)
	}
	r.lastEng = eng
	r.pending = append(r.pending, pendingDigest{i, digestOf(res)})
	if tr != nil && r.shared == nil {
		return d, r.redriveMisses(tr, r.pool[i])
	}
	return d, nil
}

// redriveMisses repeats on a second fresh engine, with a span around each,
// the plan-service fetches a cold replay of the trace misses on: one
// ProgramFor (solve + compile + encode + put) per distinct failure set.
func (r *replayer) redriveMisses(tr *tracer, trace failure.Trace) error {
	eng, _, err := experiments.ReplayEngine(r.job, nil)
	if err != nil {
		return err
	}
	fetched := make(map[string]bool)
	for _, set := range failureSets(trace, r.job.Parallel.PP, r.opt.Horizon) {
		ws := make([]schedule.Worker, 0, len(set))
		for w := range set {
			ws = append(ws, w)
		}
		engine.SortWorkers(ws)
		key := fmt.Sprint(ws)
		if fetched[key] {
			continue
		}
		fetched[key] = true
		sp := tr.begin("fetch_miss", "engine")
		_, err := eng.ProgramFor(set)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *replayer) verify() int {
	failed := 0
	for _, p := range r.pending {
		if first := r.seen[p.trace]; first == nil {
			d := p.d
			r.seen[p.trace] = &d
		} else if *first != p.d {
			failed++
		}
	}
	r.pending = r.pending[:0]
	return failed
}

func (r *replayer) finish() error           { return nil }
func (r *replayer) warm() (int, int)        { return r.warmN, r.warmFailed }
func (r *replayer) metrics() engine.Metrics { return r.lastEng.Metrics() }
