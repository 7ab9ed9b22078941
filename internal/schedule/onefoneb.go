package schedule

// OpRef identifies one compute op within a worker's instruction order:
// the op type and the micro-batch index it applies to.
type OpRef struct {
	Type OpType
	MB   int
}

// OneFOneBOrder returns the canonical synchronous 1F1B instruction order
// (PipeDream-Flush / Megatron-LM) for one stage: min(mb, pp-stage) warm-up
// forwards, a steady phase alternating one backward with one forward, and a
// cool-down of the remaining backwards.
func OneFOneBOrder(pp, mb, stage int) []OpRef {
	warm := pp - stage
	if warm > mb {
		warm = mb
	}
	order := make([]OpRef, 0, 2*mb)
	for j := 0; j < warm; j++ {
		order = append(order, OpRef{Type: F, MB: j})
	}
	for j := 0; j < mb-warm; j++ {
		order = append(order, OpRef{Type: B, MB: j})
		order = append(order, OpRef{Type: F, MB: warm + j})
	}
	for j := mb - warm; j < mb; j++ {
		order = append(order, OpRef{Type: B, MB: j})
	}
	return order
}

// FaultFree1F1B builds the fully timed fault-free 1F1B schedule for the
// shape, coupled backward passes and a globally synchronized optimizer step
// at the end of each iteration — the baseline of Figure 3a. With unit slot
// durations (TF=1, TB=2) and mb >= pp, the compute makespan of one
// iteration is (pp-1)*3 + mb*3 slots (27 in the paper's 3x4x6 example).
func FaultFree1F1B(shape Shape, d Durations) *Schedule {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	var ps []Placement
	end := filled(nil, shape.Slots(), int64(-1)) // per op slot: the op's end, -1 until timed
	base := int64(0)                             // start of the current iteration (post optimizer barrier)
	for it := 0; it < shape.Iter; it++ {
		var iterEnd int64
		for k := 0; k < shape.DP; k++ {
			ps = append(ps, pipeline1F1B(shape, d, k, it, base, end)...)
		}
		for i := len(ps) - 1; i >= 0; i-- {
			if ps[i].Op.Iter != it {
				break
			}
			if ps[i].End > iterEnd {
				iterEnd = ps[i].End
			}
		}
		// Synchronous optimizer: every worker steps together after the
		// global barrier (cross-stage numerical validation, §5).
		for k := 0; k < shape.DP; k++ {
			for i := 0; i < shape.PP; i++ {
				ps = append(ps, Placement{
					Op:    Op{Stage: i, Home: k, Exec: k, Type: Optimizer, Iter: it, MB: -1},
					Start: iterEnd,
					End:   iterEnd + d.Opt,
				})
			}
		}
		base = iterEnd + d.Opt
	}
	return New(shape, d, nil, ps)
}

// pipeline1F1B times one pipeline's 1F1B iteration starting at base using
// earliest-start evaluation of the canonical order: an op starts once its
// stage is free and each of its inputs (Shape.AppendInputs) has ended, plus
// the edge's latency. end holds every timed op's end by op slot.
func pipeline1F1B(shape Shape, d Durations, k, it int, base int64, end []int64) []Placement {
	pp := shape.PP
	orders := make([][]OpRef, pp)
	next := make([]int, pp)
	free := make([]int64, pp)
	for i := range orders {
		orders[i] = OneFOneBOrder(pp, shape.MB, i)
		free[i] = base
	}
	var ps []Placement
	var inputs [2]Input
	for remaining := pp * 2 * shape.MB; remaining > 0; {
		progressed := false
		for i := 0; i < pp; i++ {
		stage:
			for next[i] < len(orders[i]) {
				ref := orders[i][next[i]]
				kk := shape.TripleIndex(it, i, k, ref.MB)
				start := free[i]
				for _, in := range shape.AppendInputs(inputs[:0], ref.Type, i, kk) {
					if end[in.Slot] < 0 {
						break stage
					}
					start = max(start, end[in.Slot]+d.EdgeLatency(in.Kind))
				}
				free[i] = start + d.Of(ref.Type)
				end[shape.Slot(ref.Type, kk, k)] = free[i]
				ps = append(ps, Placement{
					Op:    Op{Stage: i, MB: ref.MB, Home: k, Exec: k, Type: ref.Type, Iter: it},
					Start: start,
					End:   free[i],
				})
				next[i]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			panic("schedule: 1F1B deadlock — dependency cycle in canonical order")
		}
	}
	return ps
}
