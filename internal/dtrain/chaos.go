package dtrain

import (
	"fmt"
	"math/rand"
	"sort"

	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// KillPoint classifies where in a victim's instruction stream a chaos kill
// lands. All of them land mid-iteration; they differ in what in-flight
// state the re-send protocol must recover.
type KillPoint int

const (
	// KillAtSend kills a victim at the instant one of its cross-worker
	// sends completes: the payload is out — stashed, possibly already
	// consumed downstream — and the sender is gone.
	KillAtSend KillPoint = iota
	// KillBetweenOps kills a victim at the boundary after one of its
	// compute instructions, chosen uniformly.
	KillBetweenOps
	// KillDuringAllReduce kills a victim at the brink of a gradient
	// all-reduce: every compute instruction that can complete by then has,
	// and an optimizer rendezvous is about to begin.
	KillDuringAllReduce
	// KillInEpilogue kills a victim inside the all-reduce epilogue: at
	// least one stage's optimizer step has fully completed — durable on
	// every live peer, idempotent under the step-epoch stamp — while other
	// work is still in flight.
	KillInEpilogue
)

// String renders the kill point as its CLI spelling.
func (p KillPoint) String() string {
	switch p {
	case KillAtSend:
		return "send"
	case KillBetweenOps:
		return "ops"
	case KillDuringAllReduce:
		return "allreduce"
	case KillInEpilogue:
		return "epilogue"
	}
	return fmt.Sprintf("KillPoint(%d)", int(p))
}

// ParseKillPoint parses the CLI spelling of a kill point.
func ParseKillPoint(s string) (KillPoint, error) {
	switch s {
	case "send":
		return KillAtSend, nil
	case "ops":
		return KillBetweenOps, nil
	case "allreduce":
		return KillDuringAllReduce, nil
	case "epilogue":
		return KillInEpilogue, nil
	}
	return 0, fmt.Errorf("dtrain: unknown kill point %q (want send, ops, allreduce or epilogue)", s)
}

// ChaosOptions seeds one reproducible fault-injection run.
type ChaosOptions struct {
	// Seed drives every random choice (victims, kill instants). Two runs
	// with the same Config and ChaosOptions are identical.
	Seed int64
	// Iterations is the total training iterations to run (> KillIter).
	Iterations int
	// KillIter is the iteration during which the kills land.
	KillIter int
	// Victims is how many workers die at each kill instant (>= 1).
	// Victims are drawn so every stage keeps at least one live worker
	// across the whole cascade.
	Victims int
	// Point selects where in the victims' instruction streams the kills
	// land (every event of a cascade, unless Points overrides).
	Point KillPoint
	// Cascade is the number of chained kill events inside the kill
	// iteration: the second (and Nth) kill lands while the previous
	// splice's suffix is still executing. 0 and 1 both mean a single kill.
	Cascade int
	// Points, when non-empty, selects a kill point per cascade event
	// (len(Points) must equal the cascade depth).
	Points []KillPoint
	// Recorder, when enabled, receives the chaos run's full trace — spans,
	// kills, splices, re-sends (the fault-free reference run is not
	// traced). A flight-recorder ring is always attached alongside it.
	Recorder obs.Recorder
	// FlightCap sizes the flight-recorder ring (obs.DefaultFlightCap when
	// 0).
	FlightCap int
}

// ChaosKill reports one kill event of a chaos cascade.
type ChaosKill struct {
	// Victims are the workers killed at this event, Cut the logical slot
	// the kill landed on, Point the kill-point class it was drawn from,
	// and Event the splice event ID the re-spliced Program was published
	// under.
	Victims []schedule.Worker
	Cut     int64
	Point   KillPoint
	Event   string
}

// ChaosResult reports one chaos run against its fault-free reference.
type ChaosResult struct {
	// Kills lists every mid-iteration kill event in cut order (one entry
	// for a plain kill, Cascade entries for a cascade).
	Kills []ChaosKill
	// Victims are all workers killed mid-iteration across the cascade,
	// Cut the first kill's logical slot, Event the first kill's splice
	// event ID.
	Victims []schedule.Worker
	Cut     int64
	Event   string
	// Losses and RefLosses are the per-iteration mean losses of the chaos
	// run and the fault-free reference.
	Losses, RefLosses []float64
	// Flight is the bounded ring that shadowed the chaos run; it is
	// populated even when Chaos returns an error, so every failing repro
	// ships its own forensic timeline (Flight.Dump).
	Flight *obs.FlightRecorder
}

// BitwiseEqual reports whether every iteration's loss matches the
// fault-free reference exactly — the paper's invariant that pipeline
// adaptation changes the schedule, never the math.
func (r *ChaosResult) BitwiseEqual() bool {
	if len(r.Losses) != len(r.RefLosses) {
		return false
	}
	for i := range r.Losses {
		if r.Losses[i] != r.RefLosses[i] {
			return false
		}
	}
	return true
}

// Chaos runs a seeded fault-injection experiment: a training run in which
// randomly chosen workers are killed mid-iteration at randomized
// instruction boundaries — optionally as a cascade, with later kills
// landing while an earlier splice's suffix is still executing — side by
// side with an identical fault-free run. The kills exercise the full live
// failure path — stash-and-replay re-sends, repeated LiveSplice, effect
// discard, suffix re-execution, step-epoch idempotence in the all-reduce
// epilogue — and the victims are restored from live peers at the next
// iteration boundary, so the runs must stay bitwise loss-equal throughout.
func Chaos(cfg Config, opt ChaosOptions) (*ChaosResult, error) {
	if opt.Iterations <= opt.KillIter || opt.KillIter < 0 {
		return nil, fmt.Errorf("dtrain: chaos needs 0 <= kill iteration %d < iterations %d", opt.KillIter, opt.Iterations)
	}
	if opt.Victims < 1 {
		return nil, fmt.Errorf("dtrain: chaos needs at least one victim, got %d", opt.Victims)
	}
	cascade := opt.Cascade
	if cascade < 1 {
		cascade = 1
	}
	if len(opt.Points) > 0 && len(opt.Points) != cascade {
		return nil, fmt.Errorf("dtrain: chaos got %d kill points for a depth-%d cascade", len(opt.Points), cascade)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	rt, ref := New(cfg), New(cfg)
	fl := obs.NewFlightRecorder(opt.FlightCap)
	rt.AttachRecorder(obs.Multi(opt.Recorder, fl))
	res := &ChaosResult{Flight: fl}
	for it := 0; it < opt.Iterations; it++ {
		if it == opt.KillIter+1 {
			// Boundary restore: repaired machines come back with
			// parameters and optimizer state copied from live peers, and
			// the remaining iterations run on the full fleet again.
			for _, v := range res.Victims {
				if err := rt.Rejoin(v); err != nil {
					return res, err
				}
			}
		}
		var events []CascadeEvent
		if it == opt.KillIter {
			kills, err := pickCascade(rt, cfg, opt, cascade, rng)
			if err != nil {
				return res, err
			}
			for _, k := range kills {
				res.Victims = append(res.Victims, k.Victims...)
				events = append(events, CascadeEvent{Cut: k.Cut, Fail: k.Victims})
			}
			res.Kills, res.Cut, res.Event = kills, kills[0].Cut, kills[0].Event
		}
		loss, err := rt.RunIteration(events...)
		if err != nil {
			// RunIteration folds the flight dump into the error, so a chaos
			// repro always carries its timeline.
			return res, fmt.Errorf("dtrain: chaos iteration %d: %w", it, err)
		}
		refLoss, err := ref.RunIteration()
		if err != nil {
			return res, fmt.Errorf("dtrain: reference iteration %d: %w", it, err)
		}
		res.Losses = append(res.Losses, loss)
		res.RefLosses = append(res.RefLosses, refLoss)
	}
	return res, nil
}

// pickCascade draws the victim sets and kill instants for a whole cascade
// against the current Program, advancing the runtime's own splice chain so
// each later kill is drawn from the timeline the previous splice actually
// produces. RunIteration advances a fresh chain over the same events — one
// deterministic advance, so the planned and the executed splices agree.
func pickCascade(rt *Runtime, cfg Config, opt ChaosOptions, cascade int, rng *rand.Rand) ([]ChaosKill, error) {
	sc, err := rt.newSpliceChain()
	if err != nil {
		return nil, err
	}
	var kills []ChaosKill
	for ei := 0; ei < cascade; ei++ {
		point := opt.Point
		if len(opt.Points) > 0 {
			point = opt.Points[ei]
		}
		cur, prevCut := sc.cur, sc.cut
		victims, err := drawVictims(rng, cfg, opt.Victims, cur.Failed)
		if err != nil {
			if ei > 0 {
				break // survivability envelope exhausted: stop the cascade
			}
			return nil, err
		}
		full, err := sim.ExecuteProgram(cur, sim.ProgramOptions{Done: sc.done, ReleaseAt: sc.floors})
		if err != nil {
			return nil, err
		}
		pick := func(chain bool) (KillPoint, []int64) {
			seen := make(map[KillPoint]bool)
			for _, pt := range []KillPoint{point, KillBetweenOps, KillAtSend, KillDuringAllReduce, KillInEpilogue} {
				if seen[pt] {
					continue
				}
				seen[pt] = true
				if c := killCandidates(cur, full, victims, pt, prevCut, chain, cfg.PP); len(c) > 0 {
					return pt, c
				}
			}
			return point, nil
		}
		chain := ei < cascade-1 // a later kill still has to land after this one
		var cands []int64
		truncate := false
		if ei == 0 {
			// The first kill is strict about the class — the requested
			// point or an error, so a seeded run always lands where the
			// caller asked — but degrades the cascade depth when the shape
			// leaves no chainable instant of that class.
			cands = killCandidates(cur, full, victims, point, prevCut, chain, cfg.PP)
			if len(cands) == 0 && chain {
				cands = killCandidates(cur, full, victims, point, prevCut, false, cfg.PP)
				truncate = len(cands) > 0
			}
			if len(cands) == 0 {
				return nil, fmt.Errorf("dtrain: no %s kill candidate after slot %d on victims %v", point, prevCut, victims)
			}
		} else {
			// Later cascade events land on whatever timeline the previous
			// splice left: the requested class can be exhausted (e.g. no
			// straddle-free epilogue instant remains before the iteration
			// drains). Fall back to another class, then to a terminal kill
			// that ends the cascade early, rather than abandoning the run;
			// the recorded ChaosKill keeps the actual point.
			point, cands = pick(chain)
			if len(cands) == 0 && chain {
				point, cands = pick(false)
				truncate = len(cands) > 0
			}
			if len(cands) == 0 {
				break // the iteration drained: stop the cascade at depth ei
			}
		}
		cut := cands[rng.Intn(len(cands))]

		kills = append(kills, ChaosKill{Victims: victims, Cut: cut, Point: point,
			Event: SpliceEventID(rt.iter, cut, victims, nil)})
		if ei == cascade-1 || truncate {
			break // no need to advance the chain past the last kill
		}
		if _, err := sc.advance(CascadeEvent{Cut: cut, Fail: victims}); err != nil {
			return nil, fmt.Errorf("dtrain: planning cascade kill %d: %w", ei+1, err)
		}
	}
	return kills, nil
}

// drawVictims draws n victims from the live pool, leaving every stage at
// least one live worker against the cumulative failed set (the paper's
// survivability envelope; also what makes a later boundary restore
// possible).
func drawVictims(rng *rand.Rand, cfg Config, n int, failed map[schedule.Worker]bool) ([]schedule.Worker, error) {
	pool := make([]schedule.Worker, 0, cfg.DP*cfg.PP)
	for k := 0; k < cfg.DP; k++ {
		for s := 0; s < cfg.PP; s++ {
			w := schedule.Worker{Stage: s, Pipeline: k}
			if !failed[w] {
				pool = append(pool, w)
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	perStage := make([]int, cfg.PP)
	for w := range failed {
		perStage[w.Stage]++
	}
	var victims []schedule.Worker
	for _, w := range pool {
		if len(victims) == n {
			break
		}
		if perStage[w.Stage] == cfg.DP-1 {
			continue // every stage keeps a live worker
		}
		victims = append(victims, w)
		perStage[w.Stage]++
	}
	if len(victims) < n {
		return nil, fmt.Errorf("dtrain: cannot pick %d more victims from a %dx%d fleet with every stage kept live", n, cfg.DP, cfg.PP)
	}
	return victims, nil
}

// killCandidates enumerates the valid kill instants for one cascade event
// of the given point class against the full (uncut) execution of the
// in-flight program. Every candidate is strictly after the previous cut,
// leaves at least one instruction unexecuted, and never splits a stage's
// optimizer group across the event (the LiveSplice straddle guard). With
// chain set (a later cascade event must land after this one), candidates
// must also leave non-optimizer work pending, so the next event still has
// an instruction boundary to land on.
func killCandidates(p *schedule.Program, full *sim.Execution, victims []schedule.Worker, point KillPoint, prevCut int64, chain bool, pp int) []int64 {
	victimSet := make(map[schedule.Worker]bool, len(victims))
	for _, v := range victims {
		victimSet[v] = true
	}
	// completed mirrors the cut-execution semantics at candidate instant
	// c: an instruction completes iff it started before c — except on a
	// victim, where in-flight work is killed at the cut, so it must also
	// have ended by c.
	completed := func(i int, c int64) bool {
		if full.Start[i] < 0 || full.Start[i] >= c {
			return false
		}
		if victimSet[p.Op(i).Worker()] {
			return full.End[i] <= c
		}
		return true
	}
	type group = [2]int // (iter, stage)
	optOf := make(map[group][]int)
	for i := range p.Instrs {
		if op := p.Op(i); op.Type == schedule.Optimizer {
			optOf[group{op.Iter, op.Stage}] = append(optOf[group{op.Iter, op.Stage}], i)
		}
	}
	// Groups already stepped at the previous cut (the frozen prefix of
	// this cascade event) do not distinguish the classes: only a step that
	// becomes durable within (prevCut, c] makes c an epilogue instant.
	steppedAtPrev := make(map[group]bool)
	for g, ids := range optOf {
		n := 0
		for _, i := range ids {
			if completed(i, prevCut) {
				n++
			}
		}
		if n == len(ids) {
			steppedAtPrev[g] = true
		}
	}
	admissible := func(c int64) bool {
		if c <= prevCut || c < 1 {
			return false
		}
		anyPending, computePending, newStepped := false, false, false
		for g, ids := range optOf {
			n := 0
			for _, i := range ids {
				if completed(i, c) {
					n++
				}
			}
			if n > 0 && n < len(ids) {
				return false // straddles this group's optimizer
			}
			if n == len(ids) && !steppedAtPrev[g] {
				newStepped = true
			}
		}
		for i := range p.Instrs {
			if !completed(i, c) {
				anyPending = true
				if p.Type(i) != schedule.Optimizer {
					computePending = true
					break
				}
			}
		}
		if !anyPending {
			return false // nothing left to adapt — an iteration-boundary kill
		}
		if chain && !computePending {
			// Only optimizer tails remain past c: the next cascade event
			// would have no boundary left to land on.
			return false
		}
		if point == KillInEpilogue && !newStepped {
			return false // the epilogue starts at the first fresh durable step
		}
		if point != KillInEpilogue && newStepped {
			// Keep the pre-epilogue classes pre-epilogue, so the matrix
			// dimensions stay distinct.
			return false
		}
		return true
	}

	var cands []int64
	switch point {
	case KillDuringAllReduce:
		// The brink of each stage's all-reduce: the earliest start among
		// the group's optimizer instructions.
		for _, ids := range optOf {
			min := int64(-1)
			for _, i := range ids {
				if s := full.Start[i]; min < 0 || s < min {
					min = s
				}
			}
			if min >= 0 {
				cands = append(cands, min)
			}
		}
	case KillInEpilogue:
		// Instants just past a completed step: any instruction boundary
		// works, the admissibility filter keeps only those with at least
		// one durable group.
		for i := range p.Instrs {
			if full.End[i] >= 0 {
				cands = append(cands, full.End[i])
			}
		}
	default:
		// Boundaries of the victims' own compute instructions.
		for i := range p.Instrs {
			op := p.Op(i)
			if !victimSet[op.Worker()] || op.Type == schedule.Optimizer || full.End[i] < 0 {
				continue
			}
			if point == KillAtSend && !opSends(op, pp) {
				continue
			}
			cands = append(cands, full.End[i])
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	out := cands[:0]
	var last int64 = -1
	for _, c := range cands {
		if c != last && admissible(c) {
			out = append(out, c)
			last = c
		}
	}
	return out
}

// opSends reports whether an instruction's completion coincides with a
// cross-worker send: a forward that feeds a next stage, or a backward that
// returns an input gradient upstream.
func opSends(op schedule.Op, pp int) bool {
	switch op.Type {
	case schedule.F:
		return op.Stage < pp-1
	case schedule.B, schedule.BInput:
		return op.Stage > 0
	}
	return false
}
