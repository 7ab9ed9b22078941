package dtrain

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"recycle/internal/engine"
	"recycle/internal/nn"
	"recycle/internal/obs"
	"recycle/internal/planstore"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
	"recycle/internal/tensor"
)

// Config sizes the live training job.
type Config struct {
	DP, PP                                int
	MB                                    int // micro-batches per pipeline per iteration
	InDim, Hidden, OutDim, MicroBatchSize int
	Seed                                  int64
	LR                                    float64 // AdamW's learning rate
	// Delays, when non-zero, adds a fixed busy-delay per op type (values
	// in microseconds). This emulates profiled GPU kernel latencies so the
	// runtime's wall-clock timeline can be compared against the
	// simulator's prediction (Table 2) independent of host CPU contention.
	Delays schedule.Durations
	// Store injects a shared replicated plan store (nil keeps the plan
	// service in-process only). Pointing several runtimes — or a runtime
	// and a fetch-only engine.Client — at one store is how executors
	// consume the Program artifacts another coordinator solved and
	// compiled.
	Store *planstore.Store
}

// errAborted marks an executor unwound by a peer's abort: its messages
// will never arrive, the iteration is being rolled back, and the worker
// itself has nothing to report.
var errAborted = errors.New("dtrain: iteration aborted by a peer")

// ErrForeignProgram marks a fetched Program that was not compiled for this
// runtime — another job's shape, or a failure set the runtime is not in: a
// stale or misdirected artifact at an executor — and a splice event whose
// digest names a spliced Program other than the one the runtime derived.
// RunIteration returns it before anything runs.
var ErrForeignProgram = errors.New("dtrain: fetched Program does not fit this runtime")

// delay sleeps for the configured per-op kernel latency.
func (rt *Runtime) delay(t schedule.OpType) {
	if d := rt.Cfg.Delays.Of(t); d > 0 {
		time.Sleep(time.Duration(d) * time.Microsecond)
	}
}

// Runtime owns the model replicas and executes training iterations by
// interpreting compiled Programs. It is the in-process counterpart of the
// paper's Coordinator + Executors (§4.1): the coordinator logic (failure
// handling, plan selection, validation/rollback) lives on the Runtime; each
// live worker interprets its Program instruction stream on its own
// goroutine. The Runtime never derives op order itself — ordering and
// dependencies come exclusively from schedule.Compile.
type Runtime struct {
	Cfg     Config
	Dataset *Dataset

	// eng is the plan service (Fig 8): the coordinator fetches compiled
	// Programs for the current failure set from it — replicated store
	// first, Best(n) fallback, on-demand solve on miss — instead of
	// invoking the solver directly.
	eng *engine.Engine
	// progSrc, when set, replaces the in-process engine as the source of
	// compiled Programs: the executor-side fetch path, where the artifact
	// comes out of the shared replicated store (engine.Client) instead of
	// a local solver.
	progSrc ProgramSource

	stages map[schedule.Worker]*nn.Stage
	opts   map[schedule.Worker]*nn.AdamW
	failed map[schedule.Worker]bool
	iter   int

	// epochBase is each stage's step-epoch stamp captured at iteration
	// start, by worker index. The optimizer apply path derives its target
	// epoch from it (base + op.Iter + 1), so a re-delivered step
	// instruction whose epoch already advanced is detected as an
	// idempotent no-op. Written only between iterations (and on
	// mid-iteration rejoin, between phases); executor goroutines read it
	// without locking.
	epochBase []int
	// losses (by home·MB + mb) and stepped (optimizer steps applied this
	// iteration, by worker index) are written by executors, each entry by
	// one worker, and read once they have all stopped.
	losses  []float64
	stepped []int
	// fl is the state an iteration's phases share, and chains the splice
	// chains it plans; both are reused by every iteration.
	fl     inflight
	chains []replay.Chain
	// plain is the plain timeline of the last Program an iteration started
	// from: between failures every iteration fetches the same Program.
	plain *sim.Execution

	mu        sync.Mutex
	opSeconds map[schedule.OpType]time.Duration
	opCounts  map[schedule.OpType]int

	// rec receives one span per interpreted instruction plus the
	// iteration/kill/splice lifecycle stream (obs.Nop by default). Installed
	// via AttachRecorder before training starts; executor goroutines read it
	// without locking.
	rec obs.Recorder
}

// New builds a healthy DP x PP runtime with identical stage replicas
// across data-parallel pipelines.
func New(cfg Config) *Runtime {
	job, stats := engine.ShapeJob(cfg.DP, cfg.PP, cfg.MB)
	rt := &Runtime{
		Cfg:       cfg,
		eng:       engine.New(job, stats, engine.Options{UnrollIterations: 1, Store: cfg.Store}),
		Dataset:   NewDataset(cfg.InDim, cfg.OutDim, cfg.MicroBatchSize, cfg.Seed),
		stages:    make(map[schedule.Worker]*nn.Stage),
		opts:      make(map[schedule.Worker]*nn.AdamW),
		failed:    make(map[schedule.Worker]bool),
		epochBase: make([]int, cfg.DP*cfg.PP),
		losses:    make([]float64, cfg.DP*cfg.MB),
		stepped:   make([]int, cfg.DP*cfg.PP),
		fl: inflight{
			r:      newRouter(cfg.DP * cfg.PP),
			preds:  make([]*tensor.Matrix, cfg.DP*cfg.DP*cfg.MB),
			inputs: make([]*tensor.Matrix, cfg.DP*cfg.MB),
		},
		opSeconds: make(map[schedule.OpType]time.Duration),
		opCounts:  make(map[schedule.OpType]int),
		rec:       obs.Nop{},
	}
	for k := 0; k < cfg.DP; k++ {
		// Every pipeline gets an identical replica: same seed.
		sts := nn.MLPStages(cfg.PP, cfg.InDim, cfg.Hidden, cfg.OutDim, cfg.Seed+7)
		for i, st := range sts {
			w := schedule.Worker{Stage: i, Pipeline: k}
			rt.stages[w] = st
			rt.opts[w] = nn.NewAdamW(cfg.LR)
		}
	}
	return rt
}

// Fail marks a worker failed before the next iteration (the coordinator's
// response to a failure at an iteration boundary; training resumes from
// the iteration in which the failure was identified, §4.1).
func (rt *Runtime) Fail(w schedule.Worker) {
	rt.failed[w] = true
	if rt.rec.Enabled() {
		rt.rec.Event(obs.Event{Kind: obs.EvKill, At: -1, Iter: rt.iter,
			Worker: w, HasWorker: true, Detail: "boundary"})
	}
}

// Rejoin brings a repaired worker back: its parameters and optimizer state
// are copied point-to-point from a live data-parallel peer at an iteration
// boundary (§3.4).
func (rt *Runtime) Rejoin(w schedule.Worker) error {
	if !rt.failed[w] {
		return fmt.Errorf("dtrain: worker %s is not failed", w)
	}
	donor, ok := livePeer(rt.failed, w, rt.Cfg.DP)
	if !ok {
		return fmt.Errorf("dtrain: no live peer to restore %s from", w)
	}
	src, dst := rt.stages[donor], rt.stages[w]
	srcP, dstP := src.Params(), dst.Params()
	for i := range srcP {
		copy(dstP[i].W.Data, srcP[i].W.Data)
		copy(dstP[i].Grad.Data, srcP[i].Grad.Data)
	}
	dst.Reset()
	// The copied parameters carry the donor's step-epoch stamp — restore
	// it (and the captured base, which matters when re-joining
	// mid-iteration) so the rejoiner's own optimizer instructions compute
	// the right target.
	dst.SetStepEpoch(src.StepEpoch())
	rt.epochBase[rt.workerIndex(w)] = src.StepEpoch()
	// The re-joiner's own optimizer takes the donor's state in place: every
	// moment, the step count and the hyperparameters.
	rt.opts[w].CopyStateFrom(rt.opts[donor], srcP, dstP)
	delete(rt.failed, w)
	if rt.rec.Enabled() {
		rt.rec.Event(obs.Event{Kind: obs.EvRejoin, At: -1, Iter: rt.iter,
			Worker: w, HasWorker: true, Detail: "restored from " + donor.String()})
	}
	return nil
}

// livePeer returns the first data-parallel peer of w that is not in the
// failed set — the donor a re-joining w is restored from.
func livePeer(failed map[schedule.Worker]bool, w schedule.Worker, dp int) (schedule.Worker, bool) {
	for k := 0; k < dp; k++ {
		cand := schedule.Worker{Stage: w.Stage, Pipeline: k}
		if cand != w && !failed[cand] {
			return cand, true
		}
	}
	return schedule.Worker{}, false
}

// workerIndex is w's position in the runtime's dense per-worker tables
// (schedule.Shape.WorkerIndex of every Program it interprets).
func (rt *Runtime) workerIndex(w schedule.Worker) int { return w.Pipeline*rt.Cfg.PP + w.Stage }

// StageParams exposes a worker's parameters (read-only use in tests).
func (rt *Runtime) StageParams(w schedule.Worker) []*nn.Param {
	return rt.stages[w].Params()
}

// ProgramSource yields the compiled Program for a concrete failure set.
// engine.Engine (solve-and-compile) and engine.Client (fetch-only, remote
// executor) both satisfy it.
type ProgramSource interface {
	ProgramFor(failed map[schedule.Worker]bool) (*schedule.Program, error)
}

// SetProgramSource redirects Program fetches to an alternative source —
// typically an engine.Client over a shared store, turning this runtime
// into a pure executor that interprets artifacts a remote coordinator
// compiled. Passing nil restores the in-process engine.
func (rt *Runtime) SetProgramSource(src ProgramSource) { rt.progSrc = src }

// Program fetches the compiled Program for the current failure set from
// the plan service — the Coordinator flow of §4.1: a stored plan when one
// matches, an on-demand solve otherwise, each failure set solved and
// compiled at most once across the run. This is the exact artifact the
// discrete-event simulator executes in virtual time. With a
// ProgramSource installed, the artifact is fetched from it instead
// (executor-side decode of a remotely compiled Program).
func (rt *Runtime) Program() (*schedule.Program, error) {
	if rt.progSrc != nil {
		return rt.progSrc.ProgramFor(rt.failed)
	}
	return rt.eng.ProgramFor(rt.failed)
}

// PrePlan precomputes normalized plans for 0..maxFailures concurrently into
// the engine's cache — the offline Planner phase of Fig 8, run to completion
// before training starts.
func (rt *Runtime) PrePlan(maxFailures int) error {
	return rt.eng.Warm(maxFailures)
}

// PlanMetrics reports the plan service's traffic counters: how many
// schedules were solved, served from cache, or fetched from the replicated
// store over the run so far.
func (rt *Runtime) PlanMetrics() engine.Metrics { return rt.eng.Metrics() }

// CascadeEvent is one membership event of a mid-iteration failure
// sequence: workers in Fail die at Cut, workers in Rejoin are restored at
// it. Events are applied in order at strictly increasing cuts.
type CascadeEvent struct {
	Cut    int64
	Fail   []schedule.Worker
	Rejoin []schedule.Worker
	// Digest, when non-zero, is the engine.ProgramDigest of the spliced
	// Program the event's sender derived. Every runtime derives the splice
	// itself, from the in-flight Program and the event; a digest that
	// differs from its own derivation fails the iteration with
	// ErrForeignProgram before anything runs.
	Digest uint64
}

// RunIteration executes one full training iteration — forward, backward,
// all-reduce, staggered optimizer step with post-step validation — by
// interpreting the compiled Program for the current failure set, and
// returns the mean micro-batch loss. It is the only iteration driver:
// membership events landing mid-iteration (a kill, a re-join, an Nth kill
// while an earlier splice's suffix still executes) are passed as events,
// and the fault-free iteration is the zero-event case.
//
// Plan: every splice and every phase's timeline is derived before an
// instruction runs, so an event list that cannot be spliced — or whose
// digest names another splice — is rejected with the runtime untouched.
// Run: around one shared router, each phase
// interprets the in-flight Program up to the next cut — what its splice
// chain's timeline, which times the phase, had run by then — keeping every
// cross-worker payload in its slot. Apply: the event lands (applyEvent) and
// the next phase interprets the re-spliced Program, re-reading
// already-consumed tensors from their slots. Only the final boundary
// releases them: a later kill can re-lose a suffix an earlier splice
// planned. Errors carry the flight recorder's dump (obs.Trace.Dump) when
// the attached recorder is an *obs.Trace.
func (rt *Runtime) RunIteration(events ...CascadeEvent) (float64, error) {
	chains, splices, err := rt.planIteration(events)
	if err != nil {
		return 0, rt.withFlightDump(err)
	}
	defer clear(rt.chains) // pin no Program past the iteration
	rt.captureEpochBase()
	clear(rt.losses)
	clear(rt.stepped)
	fl := &rt.fl
	fl.r.open(chains[0].Exec.Program.Shape)
	fl.r.rec = rt.rec
	i := 0
	for ; ; i++ {
		cur := chains[i].Exec.Program
		if rt.rec.Enabled() {
			rt.rec.BeginProgram(phaseLabel(rt.iter, i, len(events)), cur)
			if i == 0 {
				rt.rec.Event(obs.Event{Kind: obs.EvIterStart, At: 0, Iter: rt.iter})
			}
		}
		// Before an event the phase stops at its cut — victims included:
		// their pre-cut sends are what the slots must hold when the kill
		// lands. The final phase runs to the iteration boundary.
		if i == len(events) {
			rt.runPhase(fl, &chains[i], math.MaxInt64, nil)
			break
		}
		rt.runPhase(fl, &chains[i], events[i].Cut, events[i].Fail)
		if fl.err != nil {
			break
		}
		if err := rt.applyEvent(events[i], splices[i], cur); err != nil {
			return 0, rt.withFlightDump(err)
		}
	}
	exec := chains[i].Exec
	if i < len(events) { // rolled back before the event: what ran is its cut
		exec = chains[i].Project(events[i].Cut, events[i].Fail)
	}
	loss, err := rt.finish(exec, fl)
	return loss, rt.withFlightDump(err)
}

// withFlightDump ships the black box with a failed iteration: the newest
// segments of an attached Trace are the crash's forensic timeline.
func (rt *Runtime) withFlightDump(err error) error {
	if tr, ok := rt.rec.(*obs.Trace); ok && err != nil && tr.Enabled() {
		return fmt.Errorf("%w\n%s", err, tr.Dump())
	}
	return err
}

// planIteration derives everything an iteration will interpret before any
// of it runs: the splice chain from the compiled Program for the current
// failure set, as it stands before each event and after the last, and event
// by event the splice that re-forms it. Phase i interprets chain i up to
// event i's cut, the last phase its chain to the end. It touches no runtime
// state but the chain scratch it returns.
func (rt *Runtime) planIteration(events []CascadeEvent) ([]replay.Chain, []*replay.Spliced, error) {
	c, err := rt.newChain()
	if err != nil {
		return nil, nil, err
	}
	chains := rt.chains[:0]
	var splices []*replay.Spliced
	for _, ev := range events {
		chains = append(chains, c)
		spl, err := advance(&c, ev)
		if err != nil {
			clear(chains)
			return nil, nil, err
		}
		splices = append(splices, spl)
	}
	rt.chains = append(chains, c)
	return rt.chains, splices, nil
}

// phaseLabel names the trace segment of one phase: the whole iteration
// when fault-free, otherwise its position around the splices.
func phaseLabel(iter, phase, events int) string {
	switch {
	case events == 0:
		return fmt.Sprintf("iter%d", iter)
	case phase == 0:
		return fmt.Sprintf("iter%d/pre-splice", iter)
	case phase == events:
		return fmt.Sprintf("iter%d/post-splice", iter)
	}
	return fmt.Sprintf("iter%d/mid-splice-%d", iter, phase)
}

// newChain starts a splice chain at the compiled Program for the current
// failure set and its plain timeline, which the Program memoizes
// (sim.Plain) and the runtime wraps once per Program. The Program may
// come from a remote source, so it is checked against the runtime it is
// about to drive.
func (rt *Runtime) newChain() (replay.Chain, error) {
	prog, err := rt.Program()
	if err != nil {
		return replay.Chain{}, err
	}
	if sh := prog.Shape; sh.DP != rt.Cfg.DP || sh.PP != rt.Cfg.PP || sh.MB != rt.Cfg.MB {
		return replay.Chain{}, fmt.Errorf("%w: shape %+v, runtime is DP%d×PP%d×MB%d", ErrForeignProgram, sh, rt.Cfg.DP, rt.Cfg.PP, rt.Cfg.MB)
	}
	stale := len(prog.Failed) != len(rt.failed)
	for w := range rt.failed {
		stale = stale || !prog.Failed[w]
	}
	if stale {
		return replay.Chain{}, fmt.Errorf("%w: compiled around %d failed workers %v, the runtime has %d: %v", ErrForeignProgram, len(prog.Failed), prog.Failed, len(rt.failed), rt.failed)
	}
	if rt.plain == nil || rt.plain.Program != prog {
		ex, err := sim.Plain(prog)
		if err != nil {
			return replay.Chain{}, err
		}
		rt.plain = ex
	}
	return replay.Chain{Exec: rt.plain}, nil
}

// advance splices the chain's Program around one membership event, as the
// live runtime can interpret it, and checks the splice against the event's
// digest and every re-joiner against a live donor. The iteration driver
// and the chaos planner both advance a chain through it, so chaos draws
// kill instants from the splices the runtime executes. It touches no
// runtime state.
func advance(c *replay.Chain, ev CascadeEvent) (*replay.Spliced, error) {
	if ev.Cut <= c.Cut {
		return nil, fmt.Errorf("dtrain: cascade cuts must be strictly increasing, got %d after %d", ev.Cut, c.Cut)
	}
	spl, err := c.AdvanceLive(ev.Cut, ev.Fail, ev.Rejoin)
	if err != nil {
		return nil, err
	}
	if ev.Digest != 0 {
		d, err := engine.ProgramDigest(spl.Program)
		if err != nil {
			return nil, err
		}
		if d != ev.Digest {
			return nil, fmt.Errorf("%w: the event at cut %d carries splice digest %#016x, this runtime derived %#016x", ErrForeignProgram, ev.Cut, ev.Digest, d)
		}
	}
	if len(ev.Rejoin) > 0 {
		// A re-joiner copies its state from a live peer once the victims
		// are gone: neither a victim nor a fellow re-joiner can be its donor.
		down := make(map[schedule.Worker]bool, len(spl.Failed)+len(ev.Rejoin))
		for w := range spl.Failed {
			down[w] = true
		}
		for _, w := range ev.Rejoin {
			down[w] = true
		}
		for _, w := range ev.Rejoin {
			if _, ok := livePeer(down, w, spl.Program.Shape.DP); !ok {
				return nil, fmt.Errorf("dtrain: no live peer to restore %s from", w)
			}
		}
	}
	return spl, nil
}

// inflight is the state the phases of one iteration share: the router
// (its slots must survive every splice), the executors' first error, each
// last-stage worker's predictions awaiting their loss, by
// (pipeline·DP + home)·MB + mb — a forward executed before an event meets
// its backward after it — and each micro-batch's input as stage 0's
// first forward of it drew it, by home·MB + mb, which the loss multiplies
// by the teacher. Both tables point into stage arenas, which only the
// boundary recycles. An input is written once per iteration: a later
// forward of the micro-batch runs in a later phase, after the wait that
// ends the phase of the first, and reads it.
type inflight struct {
	r      *router
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
	preds  []*tensor.Matrix
	inputs []*tensor.Matrix
}

// fail keeps an executor's error, the first one reported.
func (fl *inflight) fail(err error) {
	fl.mu.Lock()
	if fl.err == nil {
		fl.err = err
	}
	fl.mu.Unlock()
}

// runPhase interprets, one goroutine per worker, the part of each stream
// of the chain's Program that is neither in its frozen prefix nor beyond
// what had run by instant at, the workers in fail dying there: a phase
// before an event stops every stream at its first instruction the event's
// cut leaves unrun (replay.Chain.Ran). A goroutine costs one object, its
// call's arguments; everything else it touches the runtime keeps.
func (rt *Runtime) runPhase(fl *inflight, c *replay.Chain, at int64, fail []schedule.Worker) {
	exec := c.Exec
	prog := exec.Program
	if rt.rec.Enabled() {
		// Frozen prefix spans, in instruction-ID order, make each
		// post-splice segment tile the full iteration makespan on its own
		// (the CriticalPath invariant).
		for id := range prog.Instrs {
			if c.Ran(id, c.Cut, nil) {
				rt.rec.Span(exec.Span(id, true))
			}
		}
	}
	for _, wk := range prog.Workers() {
		ids := prog.Stream(wk)
		for len(ids) > 0 && c.Ran(int(ids[0]), c.Cut, nil) {
			ids = ids[1:]
		}
		n := 0
		for n < len(ids) && c.Ran(int(ids[n]), at, fail) {
			n++
		}
		if n == 0 {
			continue
		}
		fl.wg.Add(1)
		go rt.runWorker(wk, exec, fl, ids[:n])
	}
	fl.wg.Wait()
}

// runWorker is one phase goroutine: it interprets the worker's stream and
// keeps its error.
func (rt *Runtime) runWorker(w schedule.Worker, exec *sim.Execution, fl *inflight, stream []int32) {
	defer fl.wg.Done()
	if err := rt.execOps(w, exec, fl, stream); err != nil {
		fl.fail(err)
	}
}

// applyEvent lands one membership event between two phases: victims are
// marked failed, surviving peers discard the effects the splice declared
// lost, and re-joining workers are restored. Nothing is published: every
// runtime derives the same spliced Program from the in-flight one and the
// event. cur is the Program the event interrupted.
func (rt *Runtime) applyEvent(ev CascadeEvent, lv *replay.Spliced, cur *schedule.Program) error {
	if rt.rec.Enabled() {
		// Kills and rejoins first, then the splice record with the
		// re-plan's structural counters.
		for _, w := range ev.Fail {
			rt.rec.Event(obs.Event{Kind: obs.EvKill, At: ev.Cut, Iter: rt.iter, Worker: w, HasWorker: true})
		}
		for _, w := range ev.Rejoin {
			rt.rec.Event(obs.Event{Kind: obs.EvRejoin, At: ev.Cut, Iter: rt.iter, Worker: w, HasWorker: true})
		}
		rt.rec.Event(obs.Event{Kind: obs.EvSplice, At: ev.Cut, Iter: rt.iter,
			Detail: SpliceEventID(rt.iter, ev.Cut, ev.Fail, ev.Rejoin),
			Attrs: []obs.Attr{
				{Key: "replanned", Val: int64(lv.SuffixOps)},
				{Key: "rerouted", Val: int64(lv.ReroutedOps)},
				{Key: "migrated", Val: int64(lv.MigratedTriples)},
				{Key: "lost-slots", Val: lv.LostSlots},
			}})
	}
	// Victims die with their materialized state — the activation stashes
	// on their stage objects are unreachable; only their router-stashed
	// sends, weight-gradient contributions included, survive, because the
	// stash is coordinator-visible shared memory.
	for _, w := range ev.Fail {
		rt.Fail(w)
	}
	// Surviving peers discard the stashes of completed forwards whose
	// provenance died (the splice's lost cascade): the suffix re-executes
	// them, and the duplicate guard on Forward would otherwise trip on the
	// stale first copy. A re-executed weight gradient just re-sends its
	// bitwise-identical contribution. Stepped stages are never in the
	// cascade — their update is durable and the step-epoch stamp keeps it
	// idempotent.
	for _, id := range lv.LostIDs {
		op := cur.Op(id)
		if w := op.Worker(); op.Type == schedule.F && !rt.failed[w] {
			rt.stages[w].DiscardStash(nn.MBKey{Pipeline: op.Home, MB: op.MB})
		}
	}
	// A re-joining worker's parameters and optimizer state are restored
	// from a live data-parallel peer now — at the splice instant, not the
	// iteration boundary (§3.4, pulled forward).
	for _, w := range ev.Rejoin {
		if err := rt.Rejoin(w); err != nil {
			return err
		}
	}
	return nil
}

// finish seals one interpreted iteration, every executor having stopped,
// exec its executed timeline: it collects executor errors, rolls back on
// failure (§5), and either way frees what the iteration held — the
// router's slot table, the stages' activation stashes and the arenas under
// every tensor of the iteration (the boundary GC of the re-send protocol)
// — then reduces the loss.
func (rt *Runtime) finish(exec *sim.Execution, fl *inflight) (float64, error) {
	firstErr := fl.err
	fl.err = nil
	clear(fl.preds)
	clear(fl.inputs)
	if firstErr != nil {
		// Post-step validation failed somewhere: roll back exactly the
		// workers that stepped (§5) — aborted peers never applied theirs —
		// clear every live stage's in-flight state, and skip the iteration.
		for i, steps := range rt.stepped {
			w := exec.Program.Shape.WorkerAt(i)
			for n := 0; n < steps; n++ {
				rt.opts[w].Rollback(rt.stages[w].Params())
			}
			rt.stages[w].RegressStepEpoch(steps)
		}
		for w, st := range rt.stages {
			if !rt.failed[w] {
				st.Reset()
			}
		}
	}
	// Tensors cross workers — an activation is the next stage's stash, a
	// re-routed op reads a dead victim's sends — so no arena is recycled
	// before this point, and all of them, victims' included, are now.
	fl.r.release()
	for _, st := range rt.stages {
		st.ReleaseStashes()
	}
	iter := rt.iter
	rt.iter++
	if firstErr != nil {
		if rt.rec.Enabled() {
			rt.rec.Event(obs.Event{Kind: obs.EvRollback, At: exec.Makespan, Iter: iter,
				Detail: firstErr.Error()})
		}
		return 0, fmt.Errorf("dtrain: iteration %d rolled back: %w", iter, firstErr)
	}
	if rt.rec.Enabled() {
		rt.rec.Event(obs.Event{Kind: obs.EvIterEnd, At: exec.Makespan, Iter: iter})
	}
	return rt.iterationLoss(), nil
}

// RunIterationFailure executes one training iteration during which the
// given live workers are killed mid-iteration, at logical slot cutSlot: a
// single-kill RunIteration. The victims stay failed afterward (Rejoin
// brings them back at a later boundary or splice).
func (rt *Runtime) RunIterationFailure(victims []schedule.Worker, cutSlot int64) (float64, error) {
	return rt.RunIteration(CascadeEvent{Cut: cutSlot, Fail: victims})
}

// captureEpochBase snapshots every stage's step-epoch stamp at iteration
// start — the base the optimizer apply path derives its per-instruction
// target epochs from.
func (rt *Runtime) captureEpochBase() {
	for w, st := range rt.stages {
		rt.epochBase[rt.workerIndex(w)] = st.StepEpoch()
	}
}

// SpliceEventID derives the canonical identifier of a mid-iteration splice:
// the iteration, the cut instant, and the sorted victim and rejoiner sets —
// every process derives the same string from the same event. It names the
// splice in the trace's EvSplice record and in chaos reports.
func SpliceEventID(iter int, cut int64, fail, rejoin []schedule.Worker) string {
	render := func(ws []schedule.Worker) string {
		sorted := append([]schedule.Worker(nil), ws...)
		schedule.SortWorkers(sorted)
		s := ""
		for i, w := range sorted {
			if i > 0 {
				s += ","
			}
			s += fmt.Sprintf("%d.%d", w.Stage, w.Pipeline)
		}
		return s
	}
	return fmt.Sprintf("iter%d/cut%d/fail%s/rejoin%s", iter, cut, render(fail), render(rejoin))
}

// iterationLoss reduces per-micro-batch losses in canonical (pipeline,
// micro-batch) order — the order of the dense table.
func (rt *Runtime) iterationLoss() float64 {
	var sum float64
	for _, l := range rt.losses {
		sum += l
	}
	return sum / float64(len(rt.losses))
}

// execOps interprets a contiguous range of one worker's Program
// instruction stream. Instructions run in stream order; cross-worker
// ordering needs nothing beyond the messages themselves, because every
// dependency edge of the Program is carried by something its consumer
// blocks on — an activation or gradient edge by the router message, the
// all-reduce barrier by its group's contribution slots, a local edge by
// stream order (TestEveryEdgeHasACarrier). Each instruction's logical span
// is read off exec, the discrete-event simulator's execution of the same
// Program: the executed timeline is the simulator's prediction by
// construction.
func (rt *Runtime) execOps(w schedule.Worker, exec *sim.Execution, fl *inflight, stream []int32) error {
	prog, r := exec.Program, fl.r
	st, me := rt.stages[w], rt.workerIndex(w)
	ar := st.Arena()
	last := w.Stage == rt.Cfg.PP-1
	preds := fl.preds[w.Pipeline*rt.Cfg.DP*rt.Cfg.MB:]
	tracing := rt.rec.Enabled()
	// opWall accumulates the measured compute time of the instruction in
	// flight (reset each loop turn) — a span's Actual, which the Chrome
	// trace shows next to the modeled duration. acc accumulates the
	// worker's per-type totals, merged into the runtime's when the stream
	// ends.
	var opWall time.Duration
	var acc [schedule.Optimizer + 1]struct {
		d time.Duration
		n int
	}
	record := func(t schedule.OpType, d time.Duration) {
		opWall += d
		acc[t].d += d
		acc[t].n++
	}
	defer func() {
		rt.mu.Lock()
		for t, a := range acc {
			t := schedule.OpType(t)
			if a.n == 0 {
				continue
			}
			rt.opSeconds[t] += a.d
			rt.opCounts[t] += a.n
		}
		rt.mu.Unlock()
	}()
	for _, id := range stream {
		id := int(id)
		op := prog.Op(id)
		key := nn.MBKey{Pipeline: op.Home, MB: op.MB}
		mb := op.Home*rt.Cfg.MB + op.MB
		opWall = 0
		// A recv that reports an abort unwinds the worker: its message
		// will never arrive and the iteration is being rolled back.
		switch op.Type {
		case schedule.F:
			var x *tensor.Matrix
			if op.Stage == 0 {
				// A forward re-executed after a kill reuses the input its
				// first run drew: a loss may be reading it right now.
				if x = fl.inputs[mb]; x == nil {
					x = rt.Dataset.Input(ar, rt.iter, op.Home, op.MB)
					fl.inputs[mb] = x
				}
			} else {
				m, ok := r.recv(msgKey{kind: msgAct, stage: op.Stage, iter: op.Iter, mb: key}, me)
				if !ok {
					return nil
				}
				x = m.mat
			}
			t0 := time.Now() // time only the compute, not the blocking recv
			y := st.Forward(key, x)
			rt.delay(schedule.F)
			record(schedule.F, time.Since(t0))
			if last {
				preds[mb] = y
			} else if !r.send(msgKey{kind: msgAct, stage: op.Stage + 1, iter: op.Iter, mb: key}, payload{mat: y}) {
				return nil
			}
		case schedule.B, schedule.BInput:
			var dy *tensor.Matrix
			if last {
				rt.losses[mb], dy = nn.MSELoss(ar, preds[mb], rt.Dataset.Target(ar, fl.inputs[mb]))
				preds[mb] = nil
			} else {
				m, ok := r.recv(msgKey{kind: msgGrad, stage: op.Stage, iter: op.Iter, mb: key}, me)
				if !ok {
					return nil
				}
				dy = m.mat
			}
			t0 := time.Now()
			dx := st.BackwardInput(key, dy)
			rt.delay(schedule.BInput)
			record(schedule.BInput, time.Since(t0))
			if op.Stage > 0 && !r.send(msgKey{kind: msgGrad, stage: op.Stage - 1, iter: op.Iter, mb: key}, payload{mat: dx}) {
				return nil
			}
			if op.Type == schedule.BInput {
				break
			}
			fallthrough
		case schedule.BWeight:
			// The weight gradients go to their contribution slot, where the
			// stage group's all-reduce reads them.
			t0 := time.Now()
			grads := st.BackwardWeight(key)
			rt.delay(schedule.BWeight)
			record(schedule.BWeight, time.Since(t0))
			if !r.send(msgKey{kind: msgContrib, stage: op.Stage, iter: op.Iter, mb: key}, payload{grads: grads}) {
				return nil
			}
		case schedule.Optimizer:
			if err := rt.allReduceAndStep(w, st, op.Iter, r, record); err != nil {
				if err == errAborted {
					return nil
				}
				// A real failure: release every blocked peer, then unwind.
				// RunIteration rolls back whoever managed to step.
				r.abort()
				return err
			}
		}
		if tracing {
			sp := exec.Span(id, false)
			sp.Actual = opWall
			rt.rec.Span(sp)
		}
	}
	return nil
}

// allReduceAndStep implements the per-stage gradient all-reduce and
// staggered optimizer step: the worker parks on its stage group's barrier
// until every micro-batch's contribution is in, takes the group's one
// reduction (router.reduce) and applies the optimizer step followed by
// local post-step validation.
func (rt *Runtime) allReduceAndStep(w schedule.Worker, st *nn.Stage, iter int, r *router, record func(schedule.OpType, time.Duration)) error {
	// The step-epoch guard: a re-delivered step instruction whose target
	// epoch the stage's parameters already carry is an idempotent no-op;
	// the barrier counts contributions, not peers, so skipping it holds up
	// no one.
	me := rt.workerIndex(w)
	target := rt.epochBase[me] + iter + 1
	if st.StepEpoch() >= target {
		if rt.rec.Enabled() {
			rt.rec.Event(obs.Event{Kind: obs.EvStepNoop, At: -1, Iter: iter,
				Worker: w, HasWorker: true,
				Detail: fmt.Sprintf("epoch %d already covers target %d", st.StepEpoch(), target)})
		}
		return nil
	}
	g := r.shape.StageIndex(iter, w.Stage)
	if !r.gather(g, me) {
		return errAborted
	}
	t0 := time.Now()
	r.reduce(g, st)
	rt.delay(schedule.Optimizer)
	// Apply through the step-epoch stamp: the parameters advance to the
	// target epoch exactly once, making any later re-delivery a no-op.
	if st.StepOnce(rt.opts[w], target) {
		rt.stepped[me]++
		record(schedule.Optimizer, time.Since(t0))
	}
	return nn.ValidateFinite(st.Params())
}

// AttachRecorder installs the tracing recorder every layer of this runtime
// records into: the interpreter's per-instruction spans, the router's
// re-send events and the plan service's fetch/solve/warm lifecycle.
// Attach before the first RunIteration — the field is read without
// locking by executor goroutines. Passing nil restores the default no-op
// recorder.
func (rt *Runtime) AttachRecorder(r obs.Recorder) {
	if r == nil {
		r = obs.Nop{}
	}
	rt.rec = r
	rt.eng.SetRecorder(r)
}

// MetricsSnapshot folds the plan service's traffic counters, the runtime's
// measured op counters and — when a Trace is attached — the trace's span
// and event counters into one versioned registry snapshot, the unified
// metrics exposition recycle-bench -metrics emits.
func (rt *Runtime) MetricsSnapshot() obs.Snapshot {
	reg := obs.NewRegistry()
	m := rt.eng.Metrics()
	_ = reg.PublishStruct("engine", &m)
	rt.mu.Lock()
	for t, n := range rt.opCounts {
		reg.Set("runtime", "Ops"+t.String(), int64(n))
		reg.Set("runtime", "OpMicros"+t.String(), rt.opSeconds[t].Microseconds())
	}
	rt.mu.Unlock()
	reg.Set("runtime", "Iterations", int64(rt.iter))
	reg.Set("runtime", "FailedWorkers", int64(len(rt.failed)))
	if tr, ok := rt.rec.(*obs.Trace); ok {
		reg.SetAll("trace", tr.Counters())
	}
	return reg.Snapshot()
}
