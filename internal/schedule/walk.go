package schedule

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Walk is the one rule deciding when an instruction of a Program may run,
// held once for every reader; the walk that times a Program also proves it
// deadlock-free (Prove, replay.Splice), and the simulator (internal/sim)
// walks it under cuts and deaths. Each worker runs its stream in order.
// The head of a stream may run once every producer it depends on has ended
// and, for a gated optimizer, once its stage group's barrier has drained;
// it starts at the later of its worker's clock and its producers' ends
// plus their edges' latencies (for a gated optimizer, its group's latest
// contribution end), and runs for its duration.
//
// A walk holds a stream cursor and a clock per WorkerIndex, a pending count
// and a latest contribution end per barrier group, each instruction's end,
// and the ready set: the workers whose head may be able to run. Run pops
// it: a worker runs on while its heads may run and parks on the first
// producer or barrier its head waits on, and an ending instruction wakes
// the workers parked on it — so a walk visits each head once per producer
// it waits on, O(instructions + edges) however the streams interleave, and
// its outcome does not depend on the order the ready set pops in.
type Walk struct {
	p        *Program
	t        Timing
	start    []int64 // per instruction: its start, when recorded
	end      []int64 // per instruction: its end, -1 until it ran
	own      []int64 // end's backing when the caller supplies none
	pos      []int32 // per WorkerIndex: the next position in p.streams
	free     []int64 // per WorkerIndex: the worker's clock, its earliest next start
	dead     []bool  // per WorkerIndex: the worker died
	pending  []int32 // per barrier group: contributions yet to end
	groupEnd []int64 // per barrier group: latest contribution end
	parked   []int32 // per instruction, per barrier group, then on nothing that ends: first worker parked on it, -1 for none
	next     []int32 // per WorkerIndex: the worker parked after it, -1 for none
	ready    []int32 // the ready set, a stack of WorkerIndex
	ended    int     // instructions that ended
	makespan int64   // the latest end
}

// Timing is what a walk charges beside the instructions' own durations:
// every instruction runs for its DurOf (a negative one counts as zero), and
// a Program re-timed by WithCosts is the way to run it for others. The zero
// Timing charges free edges, no cut and no failure; a plain timeline
// charges its Program's Durations on the edges.
type Timing struct {
	// Lat charges each edge its kind's latency (Durations.EdgeLatency).
	Lat Durations
	// Cut, when > 0, freezes the clock at an event instant: a head that
	// would start at or after it does not run, and neither does the rest of
	// its stream.
	Cut int64
	// FailAt holds each worker's death instant by WorkerIndex, nil for no
	// deaths and math.MaxInt64 for a worker that lives: a head that would
	// still run past it is lost with the rest of its stream.
	FailAt []int64
}

// Reset starts a walk of p under t with nothing run, every worker's clock
// at zero and every worker ready. start and end receive each instruction's
// span, -1 for one that has not run: each holds len(p.Instrs) entries,
// which Reset overwrites. A nil end selects the walk's own scratch, a nil
// start records no starts.
func (w *Walk) Reset(p *Program, t Timing, start, end []int64) {
	n, groups, nw := len(p.Instrs), max(len(p.Barrier.Off)-1, 0), max(len(p.streamOff)-1, 0)
	if end == nil {
		w.own = filled(w.own, n, -1)
		end = w.own
	} else {
		filled(end, len(end), -1)
	}
	filled(start, len(start), -1)
	w.p, w.t, w.start, w.end, w.ended, w.makespan = p, t, start, end, 0, 0
	w.pos = filled(w.pos, nw, 0)
	copy(w.pos, p.streamOff)
	w.free = filled(w.free, nw, 0)
	w.dead = filled(w.dead, nw, false)
	w.pending = filled(w.pending, groups, 0)
	for g := range w.pending {
		w.pending[g] = int32(len(p.Barrier.Group(g)))
	}
	w.groupEnd = filled(w.groupEnd, groups, 0)
	w.parked = filled(w.parked, n+groups+1, -1)
	w.next = filled(w.next, nw, -1)
	w.ready = w.ready[:0]
	for wi := nw - 1; wi >= 0; wi-- {
		w.ready = append(w.ready, int32(wi))
	}
}

// Install records instruction id as having ended at end, after its DurOf,
// before the walk began — a frozen prefix a resumed execution keeps. Call
// it before Run, then Skip every worker past what it installed.
func (w *Walk) Install(id int, end int64) {
	if w.start != nil {
		w.start[id] = end - w.p.DurOf(id)
	}
	w.record(id, end)
}

// Skip moves worker wi's cursor past the installed instructions heading its
// stream, floors its clock at their latest end and returns how many it
// passed. An installed instruction no cursor passes is not part of a
// stream prefix, and never runs again either.
func (w *Walk) Skip(wi int) (n int) {
	for ; w.pos[wi] < w.p.streamOff[wi+1]; w.pos[wi]++ {
		e := w.end[w.p.streams[w.pos[wi]]]
		if e < 0 {
			break
		}
		n, w.free[wi] = n+1, max(w.free[wi], e)
	}
	return n
}

// Release floors worker wi's clock at instant at: nothing it has yet to
// run starts earlier.
func (w *Walk) Release(wi int, at int64) { w.free[wi] = max(w.free[wi], at) }

// Run walks until no head may run: every worker finished its stream,
// froze at the cut, died, or waits on work that never runs.
func (w *Walk) Run() {
	p, t := w.p, &w.t
	for len(w.ready) > 0 {
		wi := int(w.ready[len(w.ready)-1])
		w.ready = w.ready[:len(w.ready)-1]
		free, failAt := w.free[wi], int64(math.MaxInt64)
		if t.FailAt != nil {
			failAt = t.FailAt[wi]
		}
		at, stop := w.pos[wi], p.streamOff[wi+1]
		for ; at < stop; at++ {
			id := int(p.streams[at])
			ready, wait := w.admit(id)
			if wait >= 0 {
				w.next[wi], w.parked[wait] = w.parked[wait], int32(wi)
				break
			}
			start := max(free, ready)
			if t.Cut > 0 && start >= t.Cut {
				break // frozen: per-worker starts are monotone
			}
			e := start + max(p.DurOf(id), 0)
			if e < start {
				e = math.MaxInt64 // saturate: an end is never negative
			}
			if e > failAt {
				w.dead[wi] = true // in flight when the worker died
				break
			}
			if w.start != nil {
				w.start[id] = start
			}
			free = e
			w.record(id, e)
		}
		w.pos[wi], w.free[wi] = at, free
	}
}

// admit returns the instant instruction id's producers let it start, or,
// while one of them has yet to end, what it waits on: a producer's ID,
// len(end)+g for barrier group g, or — for a gated optimizer outside every
// group — the last parking slot, which nothing ever wakes.
func (w *Walk) admit(id int) (ready int64, wait int) {
	p, end := w.p, w.end
	for _, d := range p.Deps(id) {
		e := end[d.From]
		if e < 0 {
			return 0, int(d.From)
		}
		ready = max(ready, e+w.t.Lat.EdgeLatency(d.Kind))
	}
	if in := &p.Instrs[id]; in.gated {
		switch g := int(in.op); {
		case g >= len(w.pending):
			return 0, len(w.parked) - 1 // Validate rejects such a gate
		case w.pending[g] > 0:
			return 0, len(end) + g
		default:
			ready = max(ready, w.groupEnd[g]+w.t.Lat.EdgeLatency(DepAllReduce))
		}
	}
	return ready, -1
}

// Dead reports whether worker wi died during the walk.
func (w *Walk) Dead(wi int) bool { return w.dead[wi] }

// Ended counts the instructions that ended, installed ones included.
func (w *Walk) Ended() int { return w.ended }

// Makespan returns the latest end of an instruction, installed ones
// included; 0 when none ended.
func (w *Walk) Makespan() int64 { return w.makespan }

// Clear drops the walk's hold on its Program, its timing and its spans, so
// a walk kept for reuse pins none of them.
func (w *Walk) Clear() { w.p, w.t, w.start, w.end = nil, Timing{}, nil, nil }

// record ends instruction id at end: a weight gradient counts its barrier
// group down, and whoever waits on the instruction or on the barrier it
// drained is woken.
func (w *Walk) record(id int, end int64) {
	w.end[id] = end
	w.ended++
	w.makespan = max(w.makespan, end)
	if w.parked[id] >= 0 {
		w.wake(id)
	}
	if !contributes(w.p.Instrs[id].typ) {
		return
	}
	if _, g, _ := w.p.OpIndex(id); g < len(w.pending) {
		w.pending[g]--
		w.groupEnd[g] = max(w.groupEnd[g], end)
		if w.pending[g] == 0 {
			w.wake(len(w.end) + g)
		}
	}
}

// wake returns the workers parked on k — an instruction, or len(end)+g for
// barrier group g — to the ready set.
func (w *Walk) wake(k int) {
	for v := w.parked[k]; v >= 0; v = w.next[v] {
		w.ready = append(w.ready, v)
	}
	w.parked[k] = -1
}

var walkPool = sync.Pool{New: func() any { return new(Walk) }}

// checkRuns, the one run check, walks p's plain timeline into start and
// end (as Reset takes them), returns its latest end and how many ran, and
// fails unless all did: the rest wait on a dependency cycle, through stream
// order and barriers too. Without a cut or deaths a walk stops only on a
// wait, so the verdict does not depend on the timing. The caller has
// bounds-checked every edge, stream entry and barrier list.
func (p *Program) checkRuns(start, end []int64) (makespan int64, ran int, err error) {
	w := walkPool.Get().(*Walk)
	defer walkPool.Put(w)
	w.Reset(p, Timing{Lat: p.Durations}, start, end)
	w.Run()
	makespan, ran = w.Makespan(), w.Ended()
	w.Clear()
	if n := len(p.Instrs); ran != n {
		err = fmt.Errorf("schedule: program deadlocks: %d of %d instructions are on a dependency cycle", n-ran, n)
	}
	return makespan, ran, err
}

// timeline is a Program's memoized plain timeline (Plain).
type timeline struct {
	spans    []int64 // every instruction's start, then every end, by ID
	makespan int64
	ran      int
	// set is 1 once the fields above hold the timeline. It is a plain
	// uint32 read with sync/atomic, not an atomic.Uint32, so a Program
	// stays copyable by value without go vet's copylocks complaint.
	set uint32
}

// plainMu serializes the first walks of Plain; a later call takes no lock.
var plainMu sync.Mutex

// Plain returns p's plain timeline — the walk under Timing{Lat:
// p.Durations}, with nothing installed, released, cut or killed: every
// instruction's start and end by ID (-1 for one that never ran), the
// latest end and how many ran. It reads DurOf and Durations, never the
// cost table. Unless Prove has, the first call walks p into one slab of
// 2·len(Instrs) int64s; every call, from any goroutine, returns that
// slab, so start and end are p's own: read-only. Renumber drops the memo;
// nothing else may change a Program once it is shared.
func (p *Program) Plain() (start, end []int64, makespan int64, ran int) {
	t, n := &p.plain, len(p.Instrs)
	if atomic.LoadUint32(&t.set) == 0 {
		plainMu.Lock()
		if atomic.LoadUint32(&t.set) == 0 {
			p.Prove() // a Program that deadlocks times what ran
		}
		plainMu.Unlock()
	}
	return t.spans[:n:n], t.spans[n:], t.makespan, t.ran
}

// Prove proves p runs by walking its plain timeline into p's memo, the
// walk p's first Plain would run: it fails unless every instruction ran.
// Call it before p is shared — it takes no lock.
func (p *Program) Prove() error {
	n := len(p.Instrs)
	spans := make([]int64, 2*n)
	makespan, ran, err := p.checkRuns(spans[:n:n], spans[n:])
	p.plain.spans, p.plain.makespan, p.plain.ran = spans, makespan, ran
	atomic.StoreUint32(&p.plain.set, 1)
	return err
}
