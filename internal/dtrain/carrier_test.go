package dtrain

import (
	"fmt"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/nn"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// TestEveryEdgeHasACarrier is the proof obligation for interpreting
// Programs without a dependency board: the executors synchronise on nothing
// but their messages and their own stream order, so every edge of every
// Program the runtime can be handed — the all-reduce barrier audited as the
// contribution-to-step edges it stands for, each carried by its triple's
// contribution slot, which the step's barrier waits on — must be carried by
// one of the two. For every small shape, coupled and decoupled, it audits the
// fault-free Program, the splice of every admissible single kill, and from
// each of those a mid-iteration re-join and a second kill (a depth-2
// cascade).
func TestEveryEdgeHasACarrier(t *testing.T) {
	audited := 0
	for _, sh := range [][3]int{{1, 2, 2}, {2, 1, 2}, {2, 2, 2}, {2, 3, 3}, {3, 2, 3}, {3, 3, 2}, {3, 3, 3}} {
		for _, decoupled := range []bool{true, false} {
			dp, pp, mb := sh[0], sh[1], sh[2]
			tech := engine.AllTechniques
			tech.DecoupledBackProp = decoupled
			job, stats := engine.ShapeJob(dp, pp, mb)
			eng := engine.New(job, stats, engine.Options{UnrollIterations: 1, Techniques: &tech})
			prog, err := eng.ProgramFor(nil)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("dp%d pp%d mb%d decoupled=%v", dp, pp, mb, decoupled)
			auditCarriers(t, label, prog)
			audited++
			full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, victim := range prog.Workers() {
				for cut := int64(1); cut < full.Makespan; cut++ {
					c := replay.Chain{Exec: full}
					lv, err := c.AdvanceLive(cut, []schedule.Worker{victim}, nil)
					if err != nil {
						continue // inadmissible: the runtime rejects it before running anything
					}
					at := fmt.Sprintf("%s, %s killed at %d", label, victim, cut)
					auditCarriers(t, at, lv.Program)
					audited++
					// Second events on the spliced chain, at every fifth
					// later instant to keep the sweep in seconds.
					for next := cut + 1; next < lv.Exec.Makespan; next += 5 {
						re := c
						if spl, err := re.AdvanceLive(next, nil, []schedule.Worker{victim}); err == nil {
							auditCarriers(t, fmt.Sprintf("%s, re-joined at %d", at, next), spl.Program)
							audited++
						}
						for _, second := range lv.Program.Workers() {
							re := c
							if spl, err := re.AdvanceLive(next, []schedule.Worker{second}, nil); err == nil {
								auditCarriers(t, fmt.Sprintf("%s, then %s at %d", at, second, next), spl.Program)
								audited++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("audited %d Programs", audited)
	if audited < 1000 {
		t.Fatalf("only %d Programs audited: the sweep no longer reaches the spliced cases", audited)
	}
}

// auditCarriers checks one Program: each dependency edge is either
// same-worker and earlier in that worker's stream, or carried by exactly
// one in-range router slot that the producer's executor fills; and no two
// distinct messages share a slot.
func auditCarriers(t *testing.T, label string, prog *schedule.Program) {
	t.Helper()
	sh := prog.Shape
	r := testRouter(sh)
	defer r.release()
	slots := len(r.slots)
	pos := make([]int, len(prog.Instrs)) // position in the worker's stream
	for _, w := range prog.Workers() {
		for i, id := range prog.Stream(w) {
			pos[id] = i
		}
	}
	type carrier struct {
		key    msgKey
		sender schedule.Worker
	}
	bySlot := make(map[int]carrier)
	for i := range prog.Instrs {
		to := prog.Op(i)
		for _, d := range prog.Producers(i) {
			from := prog.Op(int(d.From))
			edge := fmt.Sprintf("%s: %s edge %s -> %s", label, d.Kind, from, to)
			if from.Worker() == to.Worker() {
				if pos[d.From] >= pos[i] {
					t.Fatalf("%s: same-worker producer is not earlier in the stream", edge)
				}
				continue
			}
			mbKey := nn.MBKey{Pipeline: to.Home, MB: to.MB}
			var c carrier
			switch d.Kind {
			case schedule.DepActivation:
				// The consumer forward blocks on the activation addressed
				// to its stage; the producer forward sends to stage+1.
				c = carrier{msgKey{kind: msgAct, stage: to.Stage, iter: to.Iter, mb: mbKey}, from.Worker()}
				if from.Stage+1 != to.Stage || from.Home != to.Home || from.MB != to.MB || from.Iter != to.Iter {
					t.Fatalf("%s: producer does not send the message the consumer reads", edge)
				}
			case schedule.DepGradient:
				c = carrier{msgKey{kind: msgGrad, stage: to.Stage, iter: to.Iter, mb: mbKey}, from.Worker()}
				if from.Stage-1 != to.Stage || from.Home != to.Home || from.MB != to.MB || from.Iter != to.Iter {
					t.Fatalf("%s: producer does not send the message the consumer reads", edge)
				}
			case schedule.DepAllReduce:
				// A weight gradient reaches every peer's step through its
				// own triple's contribution slot, which the producer's
				// executor fills and the step's barrier (its group's slots)
				// waits on.
				if to.Type != schedule.Optimizer || from.Stage != to.Stage || from.Iter != to.Iter {
					t.Fatalf("%s: the contribution is not in the step's barrier group", edge)
				}
				c = carrier{msgKey{kind: msgContrib, stage: from.Stage, iter: from.Iter, mb: nn.MBKey{Pipeline: from.Home, MB: from.MB}}, from.Worker()}
			default:
				// DepLocal across workers, or a kind added without
				// deciding what the consumer blocks on.
				t.Fatalf("%s: no carrier", edge)
			}
			slot := r.index(c.key)
			if slot < 0 || slot >= slots {
				t.Fatalf("%s: slot %d outside [0,%d) for shape %+v", edge, slot, slots, sh)
			}
			if prev, ok := bySlot[slot]; ok && prev != c {
				t.Fatalf("%s: slot %d carries {%s} from %s and {%s} from %s", edge, slot, prev.key, prev.sender, c.key, c.sender)
			}
			bySlot[slot] = c
		}
	}
}
