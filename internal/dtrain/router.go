package dtrain

import (
	"fmt"
	"sync"

	"recycle/internal/nn"
	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/tensor"
)

// msgKind tags router messages.
type msgKind int8

const (
	// msgAct carries a stage-boundary activation downstream (the
	// ReRouteAct path: the sender looks up the *executing* worker of the
	// next stage, which may be a data-parallel peer).
	msgAct msgKind = iota
	// msgGrad carries an input gradient upstream (ReRouteGrad).
	msgGrad
	// msgContrib carries one micro-batch's weight gradients, one matrix per
	// parameter, from the B or BWeight that computed them to its stage
	// group's all-reduce barrier.
	msgContrib
)

// msgKey addresses one message: the (kind, iteration, stage, micro-batch)
// coordinate of the re-send protocol. Sender and receiver are implicit in
// it: an msgAct to stage s comes from stage s-1's executor of that
// micro-batch, an msgGrad to stage s from stage s+1's, an msgContrib of
// stage s from stage s's and goes to every live peer's optimizer. The key
// deliberately addresses by the micro-batch's *home* pipeline, not by the
// executing worker or the Program's instruction numbering, so a payload
// re-requested by re-routed work — the same logical message, a different
// physical executor, a re-numbered Program after every splice — resolves
// to the same slot.
type msgKey struct {
	kind  msgKind
	stage int
	iter  int
	mb    nn.MBKey
}

// payload is the router's unit of exchange.
type payload struct {
	mat   *tensor.Matrix
	grads []*tensor.Matrix
}

// slot is one message's cell of the router's table: stash and transport at
// once. It is empty until its send, then holds the payload — unread until
// the first recv, read afterwards — until the iteration boundary's release
// empties the whole table. waiter is the worker (index+1) parked on the
// empty slot.
type slot struct {
	mu     sync.Mutex
	state  uint8
	waiter int16
	p      payload
}

const (
	slotEmpty uint8 = iota
	slotUnread
	slotRead
)

// barrier is one stage group's all-reduce, kept as schedule.Walk keeps
// it: pending counts the group's empty contribution slots, head is the
// first worker (index+1) parked on it and the router's next links the
// rest. sum is the parameters of the first peer past it, whose
// accumulators hold the group's one reduction.
type barrier struct {
	mu      sync.Mutex
	pending int32
	head    int16
	sum     []*nn.Param
}

// table is a router's pooled backing: the slot table and the reduce view,
// one gradient list per contribution slot, so every stage group reduces
// through its own window of it.
type table struct {
	slots []slot
	view  [][]*tensor.Matrix
}

// tablePool recycles tables across iterations: a router takes one when it
// opens and hands it back, emptied, in release — so neither an idle
// Runtime nor the garbage collector's live heap carries a table.
var tablePool sync.Pool

// router is the in-process transport with an upstream re-send protocol,
// PipeDream's stash-and-replay send buffer made the only buffer there is:
// one dense slot per message the Shape can name, indexed by the message's
// own coordinates. A send fills its slot and wakes the one worker parked on
// it; the payload then stays readable until the iteration boundary, so a
// receiver whose predecessor consumed the original copy — re-routed work
// re-requesting a tensor that died with a killed worker — reads it again
// (the replay path) instead of blocking forever. A slot is sent at most
// once per phase — the original plus one re-derived send per later splice
// that re-executes the producer — and every copy is bitwise identical
// (re-execution recomputes the same tensors from the same replica
// parameters), so latest-wins overwrite loses nothing. The contribution
// slots are the WeightGradStore, and a stage group's optimizers park on its
// barrier until all of them are filled. An abort releases every blocked
// party so an erroring iteration can unwind instead of hanging peers whose
// producers will never send. A Runtime keeps one router and opens it for
// every iteration.
type router struct {
	shape   schedule.Shape
	triples int
	slots   []slot
	table   *table // slots' pooled backing, handed back by release
	bars    []barrier
	next    []int16 // per worker index: the worker (index+1) parked after it
	// wake holds one single-token channel per worker index: a worker parks
	// on its own, and only whoever fills what it waits on (or abort,
	// through done) wakes it.
	wake []chan struct{}
	done chan struct{}
	once sync.Once
	// rec, when enabled, records a re-send event each time a payload is
	// served to a second reader (nil in tests that build routers directly).
	rec obs.Recorder
}

// newRouter builds a closed router for workers workers: its wake
// channels, and no table until open.
func newRouter(workers int) *router {
	r := &router{wake: make([]chan struct{}, workers), done: make(chan struct{})}
	for i := range r.wake {
		r.wake[i] = make(chan struct{}, 1)
	}
	return r
}

// open readies the router for one iteration of shape: it takes an empty
// slot table for every message of the shape, opens one barrier per stage
// group and, after an abort, re-arms done.
func (r *router) open(shape schedule.Shape) {
	r.shape, r.triples = shape, shape.Triples()
	n := 3 * r.triples
	if r.table, _ = tablePool.Get().(*table); r.table == nil || len(r.table.slots) < n {
		r.table = &table{slots: make([]slot, n), view: make([][]*tensor.Matrix, r.triples)}
	}
	r.slots = r.table.slots[:n]
	if g := shape.Iter * shape.PP; len(r.bars) != g {
		r.bars = make([]barrier, g)
	}
	for i := range r.bars {
		r.bars[i] = barrier{pending: int32(shape.DP * shape.MB)}
	}
	if w := shape.DP * shape.PP; len(r.next) != w {
		r.next = make([]int16, w)
	}
	select {
	case <-r.done:
		r.done, r.once = make(chan struct{}), sync.Once{}
	default:
	}
}

// index maps a message to its slot: kind-major, then by micro-batch
// triple, so a stage group's contributions are contiguous in (home, mb)
// order. -1 when the key lies outside the shape.
func (r *router) index(k msgKey) int {
	t := r.shape.TripleIndex(k.iter, k.stage, k.mb.Pipeline, k.mb.MB)
	if t < 0 || k.kind > msgContrib {
		return -1
	}
	return int(k.kind)*r.triples + t
}

// send fills the slot and wakes its parked receiver, if any; a
// contribution filling an empty slot counts its barrier down. It never
// blocks: an occupied slot already holds a bitwise-identical copy, which
// the fresh one replaces (and re-opens for an unflagged first read).
// ok=false means the iteration was aborted and the receiver will never
// come; the sender should unwind like an aborted receiver.
func (r *router) send(k msgKey, p payload) bool {
	select {
	case <-r.done:
		return false
	default:
	}
	s := &r.slots[r.index(k)]
	s.mu.Lock()
	first := s.state == slotEmpty
	s.p, s.state = p, slotUnread
	w := s.waiter
	s.waiter = 0
	s.mu.Unlock()
	if w != 0 {
		r.wakeUp(int(w - 1))
	}
	if first && k.kind == msgContrib {
		r.count(r.shape.StageIndex(k.iter, k.stage), -1)
	}
	return true
}

// wakeUp hands worker wi its wake token. It consumes one token per park, so
// the buffer has room — unless an aborted iteration left a stale token,
// which wakes it just as well.
func (r *router) wakeUp(wi int) {
	select {
	case r.wake[wi] <- struct{}{}:
	default:
	}
}

// count moves stage group g's pending count by d and, when it drains,
// wakes every worker parked on the group.
func (r *router) count(g int, d int32) {
	b := &r.bars[g]
	b.mu.Lock()
	b.pending += d
	if b.pending == 0 {
		for v := b.head; v != 0; v = r.next[v-1] {
			r.wakeUp(int(v - 1))
		}
		b.head = 0
	}
	b.mu.Unlock()
}

// recv returns the message under k for the worker with index me, parking
// until it is sent; ok=false means the iteration was aborted and the
// message will never arrive. Reading a slot an earlier recv already
// consumed is the replay path — the original reader has since died or
// been invalidated — and is recorded as a re-send.
func (r *router) recv(k msgKey, me int) (payload, bool) {
	s := &r.slots[r.index(k)]
	for {
		s.mu.Lock()
		if s.state != slotEmpty {
			p, replay := s.p, s.state == slotRead
			s.state = slotRead
			s.mu.Unlock()
			if replay && r.rec != nil && r.rec.Enabled() {
				r.rec.Event(obs.Event{Kind: obs.EvResend, At: -1, Iter: k.iter, Detail: k.String()})
			}
			return p, true
		}
		s.waiter = int16(me + 1)
		s.mu.Unlock()
		select {
		case <-r.wake[me]:
		case <-r.done:
			return payload{}, false
		}
	}
}

// gather parks the worker with index me on stage group g's barrier until
// every contribution slot of the group is filled; ok=false means the
// iteration was aborted.
func (r *router) gather(g, me int) bool {
	b := &r.bars[g]
	parked := false
	for {
		b.mu.Lock()
		if b.pending == 0 {
			b.mu.Unlock()
			return true
		}
		if !parked {
			// Parked until the drain unlinks the whole list: a stale token
			// that wakes the worker early must not link it twice.
			r.next[me], b.head = b.head, int16(me+1)
			parked = true
		}
		b.mu.Unlock()
		select {
		case <-r.wake[me]:
		case <-r.done:
			return false
		}
	}
}

// reduce leaves stage group g's mean weight gradient in the stage's
// accumulators once its barrier has drained: the first peer past it sums
// the group's contribution slots in table order — (home, mb), the order
// that keeps re-routed execution bitwise equal to fault-free execution —
// and every later peer copies that one result.
func (r *router) reduce(g int, st *nn.Stage) {
	b := &r.bars[g]
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sum != nil {
		for i, p := range st.Params() {
			copy(p.Grad.Data, b.sum[i].Grad.Data)
		}
		return
	}
	n := r.shape.DP * r.shape.MB
	contribs := r.table.view[g*n : (g+1)*n]
	for i := range contribs {
		s := &r.slots[int(msgContrib)*r.triples+g*n+i]
		s.mu.Lock()
		contribs[i] = s.p.grads
		s.mu.Unlock()
	}
	st.ReduceContributions(contribs)
	b.sum = st.Params()
}

// release hands the table back, emptied, after every executor has stopped:
// the iteration boundary, past which no failure can re-request the
// iteration's payloads. open then starts the next iteration on empty slots
// and full barriers.
func (r *router) release() {
	clear(r.slots)
	clear(r.table.view)
	tablePool.Put(r.table)
	r.slots, r.table = nil, nil
}

// abort releases every blocked party (idempotent).
func (r *router) abort() { r.once.Do(func() { close(r.done) }) }

func (k msgKey) String() string {
	return fmt.Sprintf("kind=%d stage=%d iter=%d mb=%+v", k.kind, k.stage, k.iter, k.mb)
}
