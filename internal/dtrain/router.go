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
	// msgContrib carries a worker's WeightGradStore to its stage's
	// all-reduce root.
	msgContrib
	// msgReduced broadcasts reduced gradients from the root to peers.
	msgReduced
)

// msgKey addresses one rendezvous between two ops: the (sender, receiver,
// micro-batch) coordinate of the re-send protocol. Sender and receiver are
// implicit in (kind, stage, mb): an msgAct to stage s comes from stage
// s-1's executor of that micro-batch, an msgGrad to stage s from stage
// s+1's, and contribution/broadcast messages name the peer pipeline. The
// key deliberately addresses by the micro-batch's *home* pipeline, not by
// the executing worker or the Program's instruction numbering, so a payload
// re-requested by re-routed work — the same logical message, a different
// physical executor, a re-numbered Program after every splice — resolves
// to the same slot.
type msgKey struct {
	kind  msgKind
	stage int
	iter  int
	mb    nn.MBKey
	// peer disambiguates contribution/broadcast messages per pipeline.
	peer int
}

// payload is the router's unit of exchange.
type payload struct {
	mat      *tensor.Matrix
	contribs []nn.Contribution
	grads    []*tensor.Matrix
}

// slot is one message's cell of the router's table: stash and transport at
// once. It is empty until its send, then holds the payload — unread until
// the first recv, read afterwards — until the boundary ack empties it
// again. waiter is the worker (index+1) parked on the empty slot.
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

// slotPool recycles slot tables across iterations: a router takes one at
// construction and hands it back, emptied, in release — so neither an
// idle Runtime nor the garbage collector's live heap carries a table.
var slotPool sync.Pool

// router is the in-process transport with an upstream re-send protocol,
// PipeDream's stash-and-replay send buffer made the only buffer there is:
// one dense slot per message the Shape can name, indexed by the message's
// own coordinates. A send fills its slot and wakes the one worker parked on
// it; the payload then stays readable until acknowledged, so a receiver
// whose predecessor consumed the original copy — re-routed work
// re-requesting a tensor that died with a killed worker — reads it again
// (the replay path) instead of blocking forever. A slot is sent at most
// once per phase — the original plus one re-derived send per later splice
// that re-executes the producer — and every copy is bitwise identical
// (re-execution recomputes the same tensors from the same replica
// parameters), so latest-wins overwrite loses nothing. An abort releases
// every blocked party so an erroring iteration can unwind instead of
// hanging peers whose producers will never send.
type router struct {
	shape schedule.Shape
	slots []slot
	table *[]slot // slots' pooled backing, handed back by release
	// wake holds one single-token channel per worker index: a receiver
	// parks on its own, and only the sender of the slot it registered on
	// (or abort, through done) wakes it.
	wake []chan struct{}
	done chan struct{}
	once sync.Once
	// rec, when enabled, records a re-send event each time a payload is
	// served to a second reader (nil in tests that build routers directly).
	rec obs.Recorder
}

// newWake builds the per-worker wake channels a router parks receivers on.
func newWake(workers int) []chan struct{} {
	wake := make([]chan struct{}, workers)
	for i := range wake {
		wake[i] = make(chan struct{}, 1)
	}
	return wake
}

// newRouter takes an empty slot table for every message of the shape.
func newRouter(shape schedule.Shape, wake []chan struct{}) *router {
	n := 2 * (shape.Triples() + shape.Iter*shape.PP*shape.DP)
	r := &router{shape: shape, wake: wake, done: make(chan struct{})}
	if r.table, _ = slotPool.Get().(*[]slot); r.table == nil || len(*r.table) < n {
		t := make([]slot, n)
		r.table = &t
	}
	r.slots = (*r.table)[:n]
	return r
}

// index maps a message to its slot: activations and gradients by
// micro-batch triple, contributions and broadcasts by (stage group, peer).
// -1 when the key lies outside the shape.
func (r *router) index(k msgKey) int {
	sh := r.shape
	if k.kind == msgAct || k.kind == msgGrad {
		t := sh.TripleIndex(k.iter, k.stage, k.mb.Pipeline, k.mb.MB)
		if t < 0 {
			return -1
		}
		return int(k.kind)*sh.Triples() + t
	}
	g := sh.StageIndex(k.iter, k.stage)
	if g < 0 || k.peer < 0 || k.peer >= sh.DP || k.kind > msgReduced {
		return -1
	}
	groups := sh.Iter * sh.PP
	return 2*sh.Triples() + (int(k.kind-msgContrib)*groups+g)*sh.DP + k.peer
}

// send fills the slot and wakes its parked receiver, if any. It never
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
	s.p, s.state = p, slotUnread
	w := s.waiter
	s.waiter = 0
	s.mu.Unlock()
	if w != 0 {
		// The receiver consumes one token per park, so the buffer has
		// room — unless an aborted iteration left a stale token, which
		// wakes it just as well.
		select {
		case r.wake[w-1] <- struct{}{}:
		default:
		}
	}
	return true
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

// ack empties one slot: the payload's effects are durable and it must
// never be replayed again (a fresh send re-opens the obligation). It
// reports whether the slot held a payload.
func (r *router) ack(i int) bool {
	s := &r.slots[i]
	s.mu.Lock()
	held := s.state != slotEmpty
	s.p, s.state = payload{}, slotEmpty
	s.mu.Unlock()
	return held
}

// ackIteration acknowledges and garbage-collects every payload of one
// iteration — called at the iteration boundary, once the optimizer steps
// are validated and no failure can re-request this iteration's tensors —
// and returns how many it collected.
func (r *router) ackIteration(iter int) int {
	sh, n := r.shape, 0
	for kind := msgAct; kind <= msgReduced; kind++ {
		lo := r.index(msgKey{kind: kind, iter: iter})
		hi := lo + sh.PP*sh.DP
		if kind <= msgGrad {
			hi = lo + sh.PP*sh.DP*sh.MB
		}
		for i := lo; i < hi; i++ {
			if r.ack(i) {
				n++
			}
		}
	}
	return n
}

// release hands the slot table back for the next iteration's router, after
// every executor has stopped. Whatever was not acknowledged is dropped.
func (r *router) release() {
	clear(r.slots)
	slotPool.Put(r.table)
	r.slots, r.table = nil, nil
}

// abort releases every blocked party (idempotent).
func (r *router) abort() { r.once.Do(func() { close(r.done) }) }

func (k msgKey) String() string {
	return fmt.Sprintf("kind=%d stage=%d iter=%d mb=%+v peer=%d", k.kind, k.stage, k.iter, k.mb, k.peer)
}
