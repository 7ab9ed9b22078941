package replay

import (
	"fmt"

	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// LiveEvent describes a mid-iteration membership event against a Program
// the live runtime is interpreting: the coordinator knows the program and
// the event instant, and delegates to the DES — whose timeline agrees with
// the interpreter's by construction — to reconstruct which instructions
// had completed when the event hit. The live runtime and the trace
// replayer share it: both hand the same (program, cut, fail, rejoin) tuple
// to the same cut execution and the same Splice (cutAndSplice).
type LiveEvent struct {
	// Prog is the Program in flight when the event arrived.
	Prog *schedule.Program
	// Cut is the event instant on the program's logical clock (>= 1).
	Cut int64
	// Fail lists live workers killed at Cut; Rejoin lists failed workers
	// restored at Cut (see SpliceInput).
	Fail, Rejoin []schedule.Worker
	// Release floors per-worker re-planned start times (see SpliceInput).
	Release map[schedule.Worker]int64
	// Done carries the frozen prefix of an earlier splice when this event
	// is the second (or Nth) kill of a cascade: Prog is itself a spliced
	// Program, and Done maps its already-executed instruction IDs to their
	// completion times so the cut execution resumes instead of replaying
	// from zero. Nil for a first event.
	Done map[int]int64
}

// LiveSpliced is a Spliced plus the cut execution that defined its prefix.
// Before interpreting the suffix, live workers must discard the
// materialized effect (activation stash, weight-gradient entry) of every
// Spliced.LostIDs instruction they executed, so the re-executed suffix can
// regenerate it.
type LiveSpliced struct {
	*Spliced
	// CutExec is the DES execution of Prog cut at the event instant — its
	// Start/End arrays define the executed prefix, per worker stream.
	CutExec *sim.Execution
}

// LiveSplice reconstructs the executed prefix of a live Program at an
// event instant via the DES and returns the spliced artifact with the
// discard list — cutAndSplice, the routine the trace replayer runs too,
// plus the one guard that makes the splice interpretable by the live
// runtime: no stage's optimizer step may straddle the cut (a phase-1
// all-reduce root would block on a phase-2 contribution). Kills after a
// stage's step completed are fine — the stepped group stays frozen in the
// prefix, and the live runtime's step-epoch stamp keeps any re-delivered
// step idempotent. It is a pure function of its input: it consults the
// DES, never live state.
func LiveSplice(in LiveEvent) (*LiveSpliced, error) {
	if in.Prog == nil {
		return nil, fmt.Errorf("replay: cannot live-splice a nil program")
	}
	if in.Cut < 1 {
		return nil, fmt.Errorf("replay: live-splice cut slot %d must be >= 1", in.Cut)
	}
	lv, err := cutAndSplice(in, sim.ProgramOptions{ReleaseAt: in.Release})
	if err != nil {
		return nil, err
	}
	if lv.splitStage >= 0 {
		return nil, fmt.Errorf("replay: cut %d splits stage %d's optimizer across the event; splice before the stage's all-reduce", in.Cut, lv.splitStage)
	}
	return lv, nil
}

// cutAndSplice is the one cut-and-splice routine: execute the in-flight
// Program on the DES up to the event instant (victims' in-flight work dies
// at the cut), then Splice around the executed prefix. resume carries what
// the caller knows about the execution in flight — the release floors it
// was resumed under and where to record it; the cut, the frozen prefix and
// the victims come from the event. The live runtime reaches it through
// LiveSplice, the trace replayer calls it directly, so both splice by the
// same rule.
func cutAndSplice(in LiveEvent, resume sim.ProgramOptions) (*LiveSpliced, error) {
	resume.CutAt, resume.Done = in.Cut, in.Done
	if len(in.Fail) > 0 {
		resume.FailAt = make(map[schedule.Worker]int64, len(in.Fail))
		for _, w := range in.Fail {
			resume.FailAt[w] = in.Cut
		}
	}
	cutEx, err := sim.ExecuteProgram(in.Prog, resume)
	if err != nil {
		return nil, err
	}
	spl, err := Splice(SpliceInput{
		Prog: in.Prog, Starts: cutEx.Start, Ends: cutEx.End,
		Cut: in.Cut, Fail: in.Fail, Rejoin: in.Rejoin, Release: in.Release,
	})
	if err != nil {
		return nil, err
	}
	return &LiveSpliced{Spliced: spl, CutExec: cutEx}, nil
}
