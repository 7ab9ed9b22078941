package replay

import (
	"fmt"
	"maps"
	"math"
	"time"

	"recycle/internal/engine"
	"recycle/internal/failure"
	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// Options tunes one trace replay.
type Options struct {
	// Horizon bounds the replayed wall-clock time.
	Horizon time.Duration
	// DetectDelay is the failure-detection latency: after a mid-iteration
	// failure, every worker's re-planned work is floored this far past the
	// event instant. It surfaces as idle slots in the spliced schedule —
	// an emergent bubble, not a subtracted stall.
	DetectDelay time.Duration
	// RejoinDelay is the parameter-copy time of a re-joining worker (its
	// state is restored point-to-point from a live peer, §3.4); only the
	// joining worker is floored by it, so live peers keep computing.
	RejoinDelay time.Duration
	// Recorder, when enabled, receives every distinct Program execution the
	// replay simulates (steady-state windows once each, and per splice the
	// cut projected off its chain) plus one membership event per splice —
	// the recorder-backed source of the -events log.
	Recorder obs.Recorder
}

// MachineWorker maps a trace machine identity (flat index in [0, DP×PP))
// to the worker it hosts: consecutive identities walk the stages of one
// pipeline — machine PP·k+s hosts stage s of pipeline k — so the
// canonical highest-ID-first failure order of failure.Identify retires
// machines pipeline by pipeline from the back and never empties a stage
// until almost the whole fleet is gone.
func MachineWorker(id, pp int) schedule.Worker {
	return schedule.Worker{Stage: id % pp, Pipeline: id / pp}
}

// Event is one membership change the replayer spliced through.
type Event struct {
	// At is the event instant on the replayed wall clock.
	At time.Duration
	// Iteration is the index of the iteration the event interrupted.
	Iteration int
	// Kind is "fail", "rejoin" or (for a same-instant exchange) "swap";
	// Workers lists the affected workers, Machines the trace machine
	// identities behind them, in the same order (failures first).
	Kind     string
	Workers  []schedule.Worker
	Machines []int
	// Available is the fleet size after the event.
	Available int
	// LostOps / LostSlots measure completed work discarded because its
	// provenance died with the failed worker.
	LostOps   int
	LostSlots int64
	// ReplannedOps is the size of the re-planned suffix, ReroutedOps how
	// many of those moved to a different worker than originally planned,
	// and MigratedTriples how many whole micro-batch triples changed
	// owners at the splice — the unit whose activation stash and
	// weight-gradient store must move with it, ReCycle's analogue of a
	// failure-normalization parameter migration.
	ReplannedOps, ReroutedOps, MigratedTriples int
	// ResumedMidIteration reports that the interrupted iteration kept its
	// executed prefix and completed without restarting.
	ResumedMidIteration bool
	// StallSeconds is the emergent cost of the event: how much longer the
	// spliced iteration ran than the pre-event program would have
	// (re-executed lost work, re-plan bubbles, detection/copy floors).
	StallSeconds float64
}

// SplicedCount returns how many events interrupted a running iteration
// and resumed it mid-flight (as opposed to boundary-aligned plan
// switches).
func (r *Result) SplicedCount() int {
	n := 0
	for _, ev := range r.Events {
		if ev.ResumedMidIteration {
			n++
		}
	}
	return n
}

// Result summarizes one op-granularity trace replay.
type Result struct {
	Trace   string
	Horizon time.Duration
	// Iterations completed within the horizon; Samples and Average are the
	// training throughput they carry (the Fig 9 quantity).
	Iterations int
	Samples    float64
	Average    float64
	// StallSeconds totals the per-event emergent stalls; LostSlots totals
	// discarded completed work; MigratedTriples totals the micro-batch
	// triples that changed owners across all splices. All are sums over
	// Events.
	StallSeconds    float64
	LostSlots       int64
	MigratedTriples int
	Events          []Event
}

// Replay drives the whole availability trace through chained Program
// executions: one compiled Program per membership state, fetched from the
// engine's Coordinator path, executed on the DES virtual clock; membership
// changes that land inside an iteration splice the in-flight Program and
// resume, so every stall in the result is the makespan of real lost or
// re-planned instructions. A splice is numbered in its timeline's order
// only when the next event lands in the same iteration: nothing else reads
// its instructions by ID. Failure victims and re-joiners come from the
// trace's machine identities (MachineWorker), not from any heuristic. The
// engine must plan single iterations (UnrollIterations 1), the
// granularity the live runtime also chains at. The trace's Programs are
// prefetched: the engine's worker pool (Engine.Prefetch) fetches every
// window's Program, claiming windows in order, while the replay runs, and
// Replay stops the pool and waits for it before returning. The engine
// serves one Program per failed set however the fetches interleave, so the
// result does not depend on it.
func Replay(eng *engine.Engine, tr failure.Trace, opt Options) (*Result, error) {
	job := eng.Job()
	if iters := eng.Shape().Iter; iters != 1 {
		return nil, fmt.Errorf("replay: engine plans %d-iteration programs; chaining needs UnrollIterations 1", iters)
	}
	unit := eng.Stats().UnitSeconds
	if unit <= 0 {
		return nil, fmt.Errorf("replay: non-positive duration unit %g", unit)
	}
	if total := job.Parallel.Workers(); total != tr.Total {
		return nil, fmt.Errorf("replay: trace sized for %d workers, job has %d", tr.Total, total)
	}
	windows, err := tr.Windows(opt.Horizon)
	if err != nil {
		return nil, err
	}
	toSlots := func(d time.Duration) int64 { return int64(math.Round(d.Seconds() / unit)) }

	res := &Result{Trace: tr.Name, Horizon: opt.Horizon}
	horizonSec := opt.Horizon.Seconds()
	const eps = 1e-9
	states, badWindow := memberships(windows, job.Parallel.PP)
	// state returns window i's membership, or the error of the first window
	// that contradicts the trace so far, at the point the replay reaches it.
	state := func(i int) (membership, error) {
		if i >= len(states) {
			return membership{}, badWindow
		}
		return states[i], nil
	}
	if _, err := state(0); err != nil {
		return nil, err
	}
	sets := make([]map[schedule.Worker]bool, len(states))
	for i, st := range states {
		sets[i] = st.failed
	}
	defer eng.Prefetch(sets).Stop()

	// Each window runs its Program's plain timeline, which the Program
	// memoizes (sim.Plain). A recorder gets each distinct Program's timeline
	// once, at its first window: recorded holds those it has.
	traced := opt.Recorder != nil && opt.Recorder.Enabled()
	var recorded map[*schedule.Program]bool
	if traced {
		recorded = make(map[*schedule.Program]bool)
	}
	// recordEvent mirrors each membership event into the recorder's
	// lifecycle stream (the structured record -events renders).
	recordEvent := func(ev Event) {
		if !traced {
			return
		}
		spliced := int64(0)
		if ev.ResumedMidIteration {
			spliced = 1
		}
		opt.Recorder.Event(obs.Event{
			Kind: obs.EvMembership, At: -1, Iter: ev.Iteration,
			Detail: fmt.Sprintf("%s at %s machines=%v workers=%v",
				ev.Kind, ev.At.Round(time.Second), ev.Machines, ev.Workers),
			Attrs: []obs.Attr{
				{Key: "available", Val: int64(ev.Available)},
				{Key: "replanned", Val: int64(ev.ReplannedOps)},
				{Key: "rerouted", Val: int64(ev.ReroutedOps)},
				{Key: "migrated", Val: int64(ev.MigratedTriples)},
				{Key: "lost-slots", Val: ev.LostSlots},
				{Key: "stall-ms", Val: int64(ev.StallSeconds * 1000)},
				{Key: "spliced", Val: spliced},
			},
		})
	}

	// release is the per-event floor map handed to Chain.Advance, which only
	// reads it: one map serves every event of the replay.
	release := make(map[schedule.Worker]int64, job.Parallel.Workers())
	now := 0.0
	wi := 0
	for now < horizonSec-eps {
		// Boundary-aligned events: when an iteration ends exactly on (or
		// after) a window boundary, the membership change applies between
		// iterations — a plan switch with nothing in flight to splice. A
		// failure still pays the detection latency (the fleet idles until
		// the coordinator notices, same floor the mid-iteration path
		// applies); a boundary re-join is free — the parameter copy
		// overlaps the previous iteration (§3.4).
		for wi+1 < len(windows) && windows[wi].End.Seconds() <= now+eps {
			next := windows[wi+1]
			st, err := state(wi + 1)
			if err != nil {
				return nil, err
			}
			ev := Event{
				At:        windows[wi].End,
				Iteration: res.Iterations,
				Kind:      eventKind(len(st.dying), len(st.joining)),
				Available: next.Available,
			}
			ev.Workers = append(append(ev.Workers, st.dying...), st.joining...)
			ev.Machines = append(append(ev.Machines, next.Failed...), next.Rejoined...)
			if len(st.dying) > 0 {
				ev.StallSeconds = opt.DetectDelay.Seconds()
				res.StallSeconds += ev.StallSeconds
				now += ev.StallSeconds
			}
			res.Events = append(res.Events, ev)
			recordEvent(ev)
			wi++
		}
		prog, err := eng.ProgramFor(states[wi].failed)
		if err != nil {
			return nil, err
		}
		base, err := sim.Plain(prog)
		if err != nil {
			return nil, err
		}
		if traced && !recorded[prog] {
			recorded[prog] = true
			base.Record(opt.Recorder, fmt.Sprintf("replay/window%d", wi), prog.Durations, func(int) bool { return false }, nil, 0)
		}
		iterSec := float64(base.Makespan) * unit
		if iterSec <= 0 {
			return nil, fmt.Errorf("replay: zero-length iteration for %d failures", len(states[wi].failed))
		}
		boundary := windows[wi].End.Seconds()
		if now+iterSec <= boundary+eps {
			// Steady state: identical Program executions repeat until the
			// next membership event; fast-forward whole iterations against
			// the cached timeline.
			k := int((boundary - now + eps) / iterSec)
			if k < 1 {
				k = 1
			}
			res.Iterations += k
			res.Samples += float64(k * job.Batch.GlobalBatch)
			now += float64(k) * iterSec
			continue
		}
		if wi == len(windows)-1 {
			break // the horizon cuts the final iteration; its partial work carries no samples
		}

		// One or more membership events land inside this iteration: cut,
		// splice, resume — repeatedly, if the resumed iteration is
		// interrupted again.
		iterStart := now
		chain := Chain{Exec: base}
		endSec := 0.0
		expectEnd := base.Makespan // what the iteration would have taken without the event
		for {
			eventSec := windows[wi].End.Seconds()
			cut := toSlots(time.Duration((eventSec - iterStart) * float64(time.Second)))
			if cut < 1 {
				cut = 1
			}
			next := windows[wi+1]
			st, err := state(wi + 1)
			if err != nil {
				return nil, err
			}
			dying, joining := st.dying, st.joining
			clear(release)
			if len(dying) > 0 {
				floor := cut + toSlots(opt.DetectDelay)
				for _, w := range chain.Exec.Program.Workers() {
					release[w] = floor
				}
			}
			if d := toSlots(opt.RejoinDelay); d > 0 {
				for _, w := range joining {
					if f := cut + d; f > release[w] {
						release[w] = f
					}
				}
			}
			if traced {
				failAt := make(map[schedule.Worker]int64, len(dying))
				for _, w := range dying {
					failAt[w] = cut
				}
				frozen := func(id int) bool { return chain.Ran(id, chain.Cut, nil) }
				chain.Project(cut, dying).Record(opt.Recorder, fmt.Sprintf("replay/iter%d/cut@%d", res.Iterations, cut),
					chain.Exec.Program.Durations, frozen, failAt, cut)
			}
			spl, err := chain.advance(cut, dying, joining, release)
			if err != nil {
				return nil, err
			}
			ev := Event{
				At:              time.Duration(eventSec * float64(time.Second)),
				Iteration:       res.Iterations,
				Kind:            eventKind(len(dying), len(joining)),
				Available:       next.Available,
				LostOps:         spl.LostOps,
				LostSlots:       spl.LostSlots,
				ReplannedOps:    spl.SuffixOps,
				ReroutedOps:     spl.ReroutedOps,
				MigratedTriples: spl.MigratedTriples,
			}
			ev.Workers = append(append(ev.Workers, dying...), joining...)
			ev.Machines = append(append(ev.Machines, next.Failed...), next.Rejoined...)
			ev.ResumedMidIteration = spl.PrefixOps > 0
			ev.StallSeconds = math.Max(0, float64(spl.Exec.Makespan-expectEnd)*unit)
			expectEnd = spl.Exec.Makespan
			res.Events = append(res.Events, ev)
			recordEvent(ev)
			res.StallSeconds += ev.StallSeconds
			res.LostSlots += spl.LostSlots
			res.MigratedTriples += spl.MigratedTriples
			wi++
			endSec = iterStart + float64(spl.Exec.Makespan)*unit
			if wi < len(windows)-1 && windows[wi].End.Seconds() < endSec-eps {
				// The next event interrupts the spliced iteration too: it
				// cuts the Program by instruction ID, so number it first.
				spl.number()
				continue
			}
			spl.release() // nothing reads the Program by ID again
			break
		}
		if endSec > horizonSec+eps {
			break // the spliced iteration outruns the horizon; no sample
		}
		res.Iterations++
		res.Samples += float64(job.Batch.GlobalBatch)
		now = endSec
	}
	res.Average = res.Samples / horizonSec
	return res, nil
}

// membership is the failed-worker state of one trace window: the workers
// down while it lasts, and those that failed and re-joined at its start.
type membership struct {
	failed         map[schedule.Worker]bool
	dying, joining []schedule.Worker
}

// memberships derives every window's membership once, applying each
// window's failures, then its re-joins, to the state before it (the first
// window's re-joins aside: nothing is down before it). It returns the
// states of the windows up to the first one that contradicts the trace so
// far — a machine failing while down or re-joining while up — and that
// window's error; Replay reports it when it reaches the window.
func memberships(windows []failure.Window, pp int) ([]membership, error) {
	states := make([]membership, 0, len(windows))
	down := make(map[schedule.Worker]bool)
	for i, win := range windows {
		var st membership
		for _, id := range win.Failed {
			w := MachineWorker(id, pp)
			if down[w] {
				return states, fmt.Errorf("replay: machine %d (%s) fails while already down", id, w)
			}
			down[w] = true
			st.dying = append(st.dying, w)
		}
		if i > 0 {
			for _, id := range win.Rejoined {
				w := MachineWorker(id, pp)
				if !down[w] {
					return states, fmt.Errorf("replay: machine %d (%s) re-joins while already up", id, w)
				}
				delete(down, w)
				st.joining = append(st.joining, w)
			}
		}
		st.failed = maps.Clone(down)
		states = append(states, st)
	}
	return states, nil
}

// eventKind names a membership event by what changed: a failure, a
// re-join, or a same-instant exchange of machines.
func eventKind(fails, rejoins int) string {
	switch {
	case fails > 0 && rejoins > 0:
		return "swap"
	case fails > 0:
		return "fail"
	default:
		return "rejoin"
	}
}
