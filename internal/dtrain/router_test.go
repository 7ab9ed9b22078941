package dtrain

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"recycle/internal/nn"
	"recycle/internal/obs"
	"recycle/internal/schedule"
	"recycle/internal/tensor"
)

// testRouter builds a bare router, opened for one iteration of sh — no
// runtime, no peers running.
func testRouter(sh schedule.Shape) *router {
	r := newRouter(sh.DP * sh.PP)
	r.open(sh)
	return r
}

// peek reads a slot's state and the worker index + 1 parked on it.
func (s *slot) peek() (state uint8, waiter int16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.waiter
}

// replay reads a slot the way a re-executed consumer does, without
// parking: the payload when one is held, ok=false on an empty slot.
func (r *router) replay(k msgKey) (payload, bool) {
	if state, _ := r.slots[r.index(k)].peek(); state == slotEmpty {
		return payload{}, false
	}
	return r.recv(k, 0)
}

// held counts the slots holding a payload.
func (r *router) held() int {
	n := 0
	for i := range r.slots {
		if state, _ := r.slots[i].peek(); state != slotEmpty {
			n++
		}
	}
	return n
}

// TestStashRingProperty drives the slot table through seeded interleavings
// of sends and iteration boundaries (release, then open) over all three
// per-triple kinds, checking the protocol invariant after every step: a
// payload is replayable if and only if it was sent since the last
// boundary, what replays is always the latest copy sent, and every stage
// group's barrier counts exactly its empty contribution slots.
func TestStashRingProperty(t *testing.T) {
	sh := schedule.Shape{DP: 2, PP: 3, MB: 6, Iter: 2}
	keys := make([]msgKey, 0, 18)
	for i := 0; i < 18; i++ {
		keys = append(keys, msgKey{kind: msgKind(i % 3), stage: i % 3, iter: i % 2, mb: nn.MBKey{Pipeline: i % 2, MB: i / 3}})
	}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := testRouter(sh)
		model := make(map[msgKey]*tensor.Matrix) // payloads sent since the last boundary
		for step := 0; step < 300; step++ {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(8) == 0 { // iteration boundary
				r.release()
				r.open(sh)
				clear(model)
			} else { // send (a send after a boundary re-opens its key)
				m := &tensor.Matrix{Rows: step}
				r.send(k, payload{mat: m})
				model[k] = m
			}
			for _, mk := range keys {
				p, ok := r.replay(mk)
				want, live := model[mk]
				if ok != live {
					t.Fatalf("seed %d step %d: key {%s} replayable=%v, want %v", seed, step, mk, ok, live)
				}
				if ok && p.mat != want {
					t.Fatalf("seed %d step %d: key {%s} replayed a stale payload", seed, step, mk)
				}
			}
			filled := make([]int32, len(r.bars))
			for mk := range model {
				if mk.kind == msgContrib {
					filled[sh.StageIndex(mk.iter, mk.stage)]++
				}
			}
			for g := range r.bars {
				if got, want := r.bars[g].pending, int32(sh.DP*sh.MB)-filled[g]; got != want {
					t.Fatalf("seed %d step %d: group %d counts %d empty contribution slots, want %d", seed, step, g, got, want)
				}
			}
		}
		r.release()
	}
}

// TestStashIterationGCBoundsMemory is the regression test that the
// iteration boundary actually bounds stash memory: every iteration's
// entries — read or not — are collected by release, so the stash never
// holds more than one iteration's cross-worker traffic.
func TestStashIterationGCBoundsMemory(t *testing.T) {
	const perIter = 10
	sh := schedule.Shape{DP: 1, PP: perIter, MB: perIter, Iter: 8}
	r := testRouter(sh)
	for it := 0; it < 8; it++ {
		for i := 0; i < perIter; i++ {
			r.send(msgKey{kind: msgAct, stage: i, iter: it, mb: nn.MBKey{MB: i}}, payload{})
		}
		// A payload read before the boundary is still held until it.
		r.recv(msgKey{kind: msgAct, stage: 0, iter: it, mb: nn.MBKey{MB: 0}}, 0)
		if got := r.held(); got != perIter {
			t.Fatalf("iteration %d: table holds %d payloads before its GC, want %d (leak across boundaries)", it, got, perIter)
		}
		r.release()
		r.open(sh)
		if got := r.held(); got != 0 {
			t.Fatalf("iteration %d: boundary GC left %d payloads", it, got)
		}
	}
}

// TestIterationBoundaryReleasesStashes is the stage-side half of the
// memory-bound regression: activation stashes are retained through the
// iteration for mid-failure re-execution, so the boundary must release
// them all — a leak here would panic the next iteration's forwards.
func TestIterationBoundaryReleasesStashes(t *testing.T) {
	cfg := Config{
		DP: 2, PP: 2, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 5, LR: 1e-2,
	}
	rt := New(cfg)
	for i := 0; i < 3; i++ {
		if _, err := rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
		for w, st := range rt.stages {
			if n := st.PendingStashes(); n != 0 {
				t.Fatalf("iteration %d: worker %s still holds %d activation stashes after the boundary", i, w, n)
			}
		}
	}
}

// TestAbortMidSendNeverDeadlocks pins the teardown fix: a sender whose
// slot is already full (its receiver died or was invalidated) must not
// block — it once parked forever on a cap-1 channel — and an abort releases
// a receiver parked on a message that will never come, after which both
// send and recv report teardown symmetrically.
func TestAbortMidSendNeverDeadlocks(t *testing.T) {
	r := testRouter(schedule.Shape{DP: 1, PP: 2, MB: 2, Iter: 1})
	k := msgKey{kind: msgAct, stage: 1, iter: 0, mb: nn.MBKey{Pipeline: 0, MB: 0}}
	if !r.send(k, payload{}) {
		t.Fatal("first send rejected on a live router")
	}
	done := make(chan bool, 1)
	go func() { done <- r.send(k, payload{}) }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("duplicate send on a live router reported teardown")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send deadlocked on a full slot with no receiver")
	}

	empty := msgKey{kind: msgGrad, stage: 0, iter: 0, mb: nn.MBKey{MB: 1}}
	parked := make(chan bool, 1)
	go func() {
		_, ok := r.recv(empty, 1)
		parked <- ok
	}()
	r.abort()
	r.abort() // idempotent
	select {
	case ok := <-parked:
		if ok {
			t.Fatal("a receiver parked on an empty slot got a message out of an abort")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort left a receiver parked")
	}
	if r.send(k, payload{}) {
		t.Fatal("send after abort reported success")
	}
	if _, ok := r.recv(empty, 0); ok {
		t.Fatal("recv after abort reported a message")
	}
}

// TestRecvPrefersLiveChannelThenStash pins the recv resolution the re-send
// protocol relies on: a sent original is consumed first, unflagged — also
// by a receiver that parked before the send; once consumed, a
// re-requesting receiver is served the same payload again, flagged as a
// re-send; past the iteration boundary the slot no longer replays.
func TestRecvPrefersLiveChannelThenStash(t *testing.T) {
	sh := schedule.Shape{DP: 1, PP: 2, MB: 4, Iter: 1}
	r := testRouter(sh)
	tr := obs.NewTrace()
	r.rec = tr
	k := msgKey{kind: msgAct, stage: 1, iter: 0, mb: nn.MBKey{MB: 2}}
	m := &tensor.Matrix{Rows: 1}
	got := make(chan *tensor.Matrix, 1)
	go func() {
		p, _ := r.recv(k, 1) // parks: nothing sent yet
		got <- p.mat
	}()
	for {
		if _, waiter := r.slots[r.index(k)].peek(); waiter != 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !r.send(k, payload{mat: m}) {
		t.Fatal("send rejected")
	}
	select {
	case first := <-got:
		if first != m {
			t.Fatal("original copy not delivered to the parked receiver")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send did not wake the receiver parked on its slot")
	}
	if n := tr.Counters()["events.resend"]; n != 0 {
		t.Fatalf("first read of a payload recorded %d re-sends", n)
	}
	// The original was consumed; a re-executed consumer re-requests the
	// same key and must be served from the slot.
	p, ok := r.recv(k, 0)
	if !ok || p.mat != m {
		t.Fatal("re-requested payload not replayed from its slot")
	}
	if n := tr.Counters()["events.resend"]; n != 1 {
		t.Fatalf("replayed read recorded %d re-sends, want 1", n)
	}
	r.release()
	r.open(sh)
	go func() {
		time.Sleep(10 * time.Millisecond)
		r.abort()
	}()
	if _, ok := r.recv(k, 0); ok {
		t.Fatal("a payload was replayed past the iteration boundary")
	}
}

// TestChaosRouterStashSurvivesSecondLoss is the premature-GC regression
// for cascading kills: when a second splice re-loses a suffix the first
// splice already re-executed, the consumer comes back for the same payload
// a second (and Nth) time. Nothing may empty the stash mid-cascade — the
// only release is the iteration boundary after the final phase — so every
// re-request before it must still replay, and a fresh send after the
// boundary must re-open the obligation.
func TestChaosRouterStashSurvivesSecondLoss(t *testing.T) {
	sh := schedule.Shape{DP: 2, PP: 2, MB: 2, Iter: 3}
	r := testRouter(sh)
	k := msgKey{kind: msgAct, stage: 1, iter: 2, mb: nn.MBKey{Pipeline: 0, MB: 1}}
	m := tensor.New(1, 1)
	r.send(k, payload{mat: m})

	// First splice: the re-executed consumer replays the payload.
	if p, ok := r.replay(k); !ok || p.mat != m {
		t.Fatal("first re-request did not replay the stashed payload")
	}
	// Second splice re-loses the same suffix before the boundary: the
	// payload must replay again, bit-identical.
	for n := 0; n < 3; n++ {
		if p, ok := r.replay(k); !ok || p.mat != m {
			t.Fatalf("re-request %d after a later splice missed: premature stash GC", n+2)
		}
	}
	// Only the iteration boundary — the cascade's single release —
	// retires the obligation.
	if got := r.held(); got != 1 {
		t.Fatalf("the table holds %d payloads before the boundary, want 1", got)
	}
	r.release()
	r.open(sh)
	if _, ok := r.replay(k); ok {
		t.Fatal("payload replayed past the iteration boundary")
	}
	// A fresh send re-opens it: the next iteration's send is a new
	// obligation.
	r.send(k, payload{mat: m})
	if _, ok := r.replay(k); !ok {
		t.Fatal("a send after the boundary did not re-open the obligation")
	}
}

// contrib keys one micro-batch's contribution to stage group (iter, stage).
func contrib(iter, stage, home, mb int) msgKey {
	return msgKey{kind: msgContrib, stage: stage, iter: iter, mb: nn.MBKey{Pipeline: home, MB: mb}}
}

// parkedOn lists the worker indices parked on group g's barrier.
func (r *router) parkedOn(g int) []int {
	b := &r.bars[g]
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []int
	for v := b.head; v != 0; v = r.next[v-1] {
		out = append(out, int(v-1))
	}
	return out
}

// startGather runs gather(g, me) on its own goroutine and reports its
// result on the returned channel once it has parked.
func startGather(t *testing.T, r *router, g, me int) <-chan bool {
	t.Helper()
	out := make(chan bool, 1)
	go func() { out <- r.gather(g, me) }()
	deadline := time.Now().Add(5 * time.Second)
	for !slices.Contains(r.parkedOn(g), me) {
		if time.Now().After(deadline) {
			t.Fatalf("worker %d never parked on group %d", me, g)
		}
		time.Sleep(time.Millisecond)
	}
	return out
}

// TestBarrierWakesEveryParkedPeer pins the barrier's wake-up: every peer
// that parks on a stage group stays parked until the group's last
// contribution slot fills, and that send wakes them all — not one, and not
// another group's.
func TestBarrierWakesEveryParkedPeer(t *testing.T) {
	sh := schedule.Shape{DP: 3, PP: 2, MB: 2, Iter: 1}
	r := testRouter(sh)
	defer r.release()
	g := sh.StageIndex(0, 1)
	peers := []int{sh.WorkerIndex(schedule.Worker{Stage: 1, Pipeline: 0}), sh.WorkerIndex(schedule.Worker{Stage: 1, Pipeline: 2})}
	var done []<-chan bool
	for _, me := range peers {
		done = append(done, startGather(t, r, g, me))
	}
	var keys []msgKey
	for home := 0; home < sh.DP; home++ {
		for mb := 0; mb < sh.MB; mb++ {
			keys = append(keys, contrib(0, 1, home, mb))
			r.send(contrib(0, 0, home, mb), payload{}) // the other group's slots wake no one here
		}
	}
	for _, k := range keys[:len(keys)-1] {
		r.send(k, payload{})
	}
	for i, ch := range done {
		select {
		case <-ch:
			t.Fatalf("peer %d passed the barrier with one contribution missing", peers[i])
		case <-time.After(20 * time.Millisecond):
		}
	}
	r.send(keys[len(keys)-1], payload{})
	for i, ch := range done {
		select {
		case ok := <-ch:
			if !ok {
				t.Fatalf("peer %d reported an abort", peers[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("the last contribution did not wake peer %d", peers[i])
		}
	}
	if got := r.parkedOn(g); len(got) != 0 {
		t.Fatalf("drained barrier still lists parked workers %v", got)
	}
	if !r.gather(g, peers[0]) {
		t.Fatal("gather on a drained barrier did not pass")
	}
}

// TestBarrierCountsAResendOnce pins the splice-safety of the count: a
// contribution re-sent by re-executed work fills a slot that is already
// full, and must not count the barrier down a second time.
func TestBarrierCountsAResendOnce(t *testing.T) {
	sh := schedule.Shape{DP: 2, PP: 1, MB: 2, Iter: 1}
	r := testRouter(sh)
	defer r.release()
	k := contrib(0, 0, 1, 0)
	for i := 0; i < 3; i++ {
		r.send(k, payload{})
	}
	if got := r.bars[0].pending; got != 3 {
		t.Fatalf("three sends of one contribution left %d pending, want 3", got)
	}
	ch := startGather(t, r, 0, 0)
	r.send(contrib(0, 0, 0, 0), payload{})
	r.send(contrib(0, 0, 0, 1), payload{})
	r.send(k, payload{})
	select {
	case <-ch:
		t.Fatal("a re-sent contribution stood in for a missing one")
	case <-time.After(20 * time.Millisecond):
	}
	r.send(contrib(0, 0, 1, 1), payload{})
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("the last contribution did not drain the barrier")
	}
}

// TestBarrierAbortReleasesGather pins the teardown of a parked optimizer: an
// abort releases it with ok=false, and a later gather on the same barrier
// reports the abort at once.
func TestBarrierAbortReleasesGather(t *testing.T) {
	r := testRouter(schedule.Shape{DP: 2, PP: 2, MB: 2, Iter: 1})
	defer r.release()
	ch := startGather(t, r, 1, 3)
	r.abort()
	select {
	case ok := <-ch:
		if ok {
			t.Fatal("an aborted gather reported a drained barrier")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort left a gather parked")
	}
	if r.gather(1, 1) {
		t.Fatal("gather after abort reported a drained barrier")
	}
}

// TestBarrierReducesInHomeMBOrder pins the reduction order: whatever order
// the contributions arrive in, the group sums them in (home, mb) order —
// the canonical order that keeps re-routed execution bitwise equal to
// fault-free execution, on data whose sum tells orders apart — and every
// peer's accumulators get the first peer's one reduction, bit for bit.
func TestBarrierReducesInHomeMBOrder(t *testing.T) {
	sh := schedule.Shape{DP: 3, PP: 2, MB: 4, Iter: 1}
	r := testRouter(sh)
	defer r.release()
	rng := rand.New(rand.NewSource(3))
	// Magnitudes spread over 30 decades make every summation order round
	// differently.
	value := func(home, mb int) float64 { return math.Pow(10, float64(home*sh.MB+mb)*2.5) * (rng.Float64() - 0.5) }
	var keys []nn.MBKey
	for home := 0; home < sh.DP; home++ {
		for mb := 0; mb < sh.MB; mb++ {
			keys = append(keys, nn.MBKey{Pipeline: home, MB: mb})
		}
	}
	want := make(map[nn.MBKey][]*tensor.Matrix)
	// Two peers of stage 1.
	stages := []*nn.Stage{nn.MLPStages(sh.PP, 2, 3, 2, 1)[1], nn.MLPStages(sh.PP, 2, 3, 2, 1)[1]}
	for _, k := range keys {
		var grads []*tensor.Matrix
		for _, p := range stages[0].Params() {
			g := tensor.New(p.Grad.Rows, p.Grad.Cols)
			for i := range g.Data {
				g.Data[i] = value(k.Pipeline, k.MB)
			}
			grads = append(grads, g)
		}
		want[k] = grads
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for _, k := range keys {
		r.send(contrib(0, 1, k.Pipeline, k.MB), payload{grads: want[k]})
	}
	slices.SortFunc(keys, func(a, b nn.MBKey) int {
		return cmp.Or(cmp.Compare(a.Pipeline, b.Pipeline), cmp.Compare(a.MB, b.MB))
	})
	ordered := make([][]*tensor.Matrix, len(keys))
	for i, k := range keys {
		ordered[i] = want[k]
	}
	// The data is order-sensitive: the reverse order reduces differently.
	ref, backward := nn.MLPStages(sh.PP, 2, 3, 2, 1)[1], nn.MLPStages(sh.PP, 2, 3, 2, 1)[1]
	ref.ReduceContributions(ordered)
	slices.Reverse(ordered)
	backward.ReduceContributions(ordered)
	if tensor.Equal(ref.Params()[0].Grad, backward.Params()[0].Grad) {
		t.Fatal("reduction order does not change the sum: the test data cannot tell orders apart")
	}
	for _, st := range stages {
		r.reduce(sh.StageIndex(0, 1), st) // the second copies the first's reduction
		for i, p := range st.Params() {
			if !tensor.Equal(p.Grad, ref.Params()[i].Grad) {
				t.Fatalf("a peer's reduced gradient %d differs from the (home, mb)-ordered sum", i)
			}
		}
	}
}
