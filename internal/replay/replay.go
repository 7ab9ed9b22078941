package replay

import (
	"fmt"
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
	// replay simulates (steady-state windows once each, cut executions per
	// splice) plus one membership event per splice — the recorder-backed
	// source of the -events log.
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
// re-planned instructions. Failure victims and re-joiners come from the
// trace's machine identities (MachineWorker), not from any heuristic. The
// engine must plan single iterations (UnrollIterations 1), the
// granularity the live runtime also chains at.
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
	pp := job.Parallel.PP
	failed := make(map[schedule.Worker]bool)
	applyFail := func(ids []int) ([]schedule.Worker, error) {
		ws := make([]schedule.Worker, 0, len(ids))
		for _, id := range ids {
			w := MachineWorker(id, pp)
			if failed[w] {
				return nil, fmt.Errorf("replay: machine %d (%s) fails while already down", id, w)
			}
			failed[w] = true
			ws = append(ws, w)
		}
		return ws, nil
	}
	applyRejoin := func(ids []int) ([]schedule.Worker, error) {
		ws := make([]schedule.Worker, 0, len(ids))
		for _, id := range ids {
			w := MachineWorker(id, pp)
			if !failed[w] {
				return nil, fmt.Errorf("replay: machine %d (%s) re-joins while already up", id, w)
			}
			delete(failed, w)
			ws = append(ws, w)
		}
		return ws, nil
	}
	if _, err := applyFail(windows[0].Failed); err != nil {
		return nil, err
	}

	execCache := make(map[*schedule.Program]*sim.Execution)
	baseExec := func(p *schedule.Program, label string) (*sim.Execution, error) {
		if ex, ok := execCache[p]; ok {
			return ex, nil
		}
		ex, err := sim.ExecuteProgram(p, sim.ProgramOptions{Recorder: opt.Recorder, TraceLabel: label})
		if err != nil {
			return nil, err
		}
		execCache[p] = ex
		return ex, nil
	}
	// recordEvent mirrors each membership event into the recorder's
	// lifecycle stream (the structured record -events renders).
	recordEvent := func(ev Event) {
		if opt.Recorder == nil || !opt.Recorder.Enabled() {
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

	// release is the per-event floor map handed to cutAndSplice, which only
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
			ev := Event{
				At:        windows[wi].End,
				Iteration: res.Iterations,
				Available: next.Available,
			}
			dying, err := applyFail(next.Failed)
			if err != nil {
				return nil, err
			}
			joining, err := applyRejoin(next.Rejoined)
			if err != nil {
				return nil, err
			}
			ev.Kind = eventKind(len(dying), len(joining))
			ev.Workers = append(append(ev.Workers, dying...), joining...)
			ev.Machines = append(append(ev.Machines, next.Failed...), next.Rejoined...)
			if len(dying) > 0 {
				ev.StallSeconds = opt.DetectDelay.Seconds()
				res.StallSeconds += ev.StallSeconds
				now += ev.StallSeconds
			}
			res.Events = append(res.Events, ev)
			recordEvent(ev)
			wi++
		}
		prog, err := eng.ProgramFor(failed)
		if err != nil {
			return nil, err
		}
		base, err := baseExec(prog, fmt.Sprintf("replay/window%d", wi))
		if err != nil {
			return nil, err
		}
		iterSec := float64(base.Makespan) * unit
		if iterSec <= 0 {
			return nil, fmt.Errorf("replay: zero-length iteration for %d failures", len(failed))
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
		curProg := prog
		var done map[int]int64
		var floors map[schedule.Worker]int64
		endSec := 0.0
		expectEnd := base.Makespan // what the iteration would have taken without the event
		for {
			eventSec := windows[wi].End.Seconds()
			cut := toSlots(time.Duration((eventSec - iterStart) * float64(time.Second)))
			if cut < 1 {
				cut = 1
			}
			next := windows[wi+1]
			dying, err := applyFail(next.Failed)
			if err != nil {
				return nil, err
			}
			joining, err := applyRejoin(next.Rejoined)
			if err != nil {
				return nil, err
			}
			clear(release)
			if len(dying) > 0 {
				floor := cut + toSlots(opt.DetectDelay)
				for _, w := range curProg.Workers() {
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
			spl, err := cutAndSplice(LiveEvent{
				Prog: curProg, Cut: cut, Fail: dying, Rejoin: joining,
				Release: release, Done: done,
			}, sim.ProgramOptions{
				ReleaseAt: floors, Recorder: opt.Recorder,
				TraceLabel: fmt.Sprintf("replay/iter%d/cut@%d", res.Iterations, cut),
			})
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
			ev.StallSeconds = math.Max(0, float64(spl.EndSlot-expectEnd)*unit)
			expectEnd = spl.EndSlot
			res.Events = append(res.Events, ev)
			recordEvent(ev)
			res.StallSeconds += ev.StallSeconds
			res.LostSlots += spl.LostSlots
			res.MigratedTriples += spl.MigratedTriples
			wi++
			curProg, done, floors = spl.Program, spl.Done, spl.Floors
			endSec = iterStart + float64(spl.EndSlot)*unit
			if wi < len(windows)-1 && windows[wi].End.Seconds() < endSec-eps {
				continue // the next event interrupts the spliced iteration too
			}
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
