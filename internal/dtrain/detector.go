package dtrain

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"recycle/internal/obs"
	"recycle/internal/schedule"
)

// Detector is the heartbeat-based failure detector of §5: workers send
// periodic heartbeats carrying health statistics to a central driver; the
// driver marks a worker failed when heartbeats stop arriving within the
// timeout, and invokes the registered callback (the Coordinator's
// plan-switch path).
//
// Beyond hard failures, the heartbeat payload carries per-op timing
// statistics (ObserveOp), from which the detector tracks gray failures —
// slow-but-alive workers whose compute runs a configurable multiple above
// the fleet median — continuously: each worker's timings feed an EWMA, so
// a drifting slowdown keeps moving the observed factor after the first
// flag. The straggler callback is the Coordinator's re-plan trigger: it
// feeds engine.MarkStraggler, which retunes the cost model so the next
// plan fetch re-solves and routes around the slow worker. To avoid
// re-solving on noise, the callback fires only when the routing would
// change: on the first crossing of StraggleFactor, when an
// already-flagged worker's factor drifts by at least ReflagDelta from the
// last factor reported, and (with factor 1) when it recovers below the
// hysteresis band — clear-and-reflag, not flag-once.
type Detector struct {
	Timeout time.Duration
	// StraggleFactor is the slowdown multiple over the fleet median EWMA
	// op time at which a live worker is flagged as a straggler. <= 1
	// disables gray-failure detection. Typical: 1.5.
	StraggleFactor float64
	// MinObservations is how many op timings a worker must report before
	// its EWMA is trusted (0 defaults to 4).
	MinObservations int
	// EWMAAlpha weights the newest observation in the moving average
	// (0 defaults to 0.25). Higher tracks drift faster, at more noise.
	EWMAAlpha float64
	// ClearFactor is the hysteresis floor: a flagged worker whose factor
	// falls below it is cleared (callback with factor 1) and must re-earn
	// the flag. 0 defaults to 80% of StraggleFactor, so a worker hovering
	// at the threshold does not flap the planner.
	ClearFactor float64
	// ReflagDelta is the relative factor movement that re-fires the
	// callback for an already-flagged worker (0 defaults to 0.25): only a
	// drift large enough to change micro-batch routing is worth a
	// re-solve.
	ReflagDelta float64

	mu         sync.Mutex
	lastSeen   map[schedule.Worker]time.Time
	failed     map[schedule.Worker]bool
	ewma       map[schedule.Worker]float64 // nanoseconds
	opN        map[schedule.Worker]int
	straggling map[schedule.Worker]float64 // latest observed factor of flagged workers
	reported   map[schedule.Worker]float64 // factor last delivered to the callback
	onFail     func(schedule.Worker)
	onStraggle func(schedule.Worker, float64)
	rec        obs.Recorder
	now        func() time.Time // the detector's clock; tests substitute a fake
	stop       chan struct{}
	done       chan struct{}
}

// SetRecorder routes the detector's lifecycle decisions — heartbeat-lapse
// failures and straggler flag changes — into a tracing recorder.
func (d *Detector) SetRecorder(r obs.Recorder) {
	d.mu.Lock()
	d.rec = r
	d.mu.Unlock()
}

// NewDetector builds a detector; onFail runs once per detected failure.
func NewDetector(timeout time.Duration, onFail func(schedule.Worker)) *Detector {
	return &Detector{
		Timeout:    timeout,
		lastSeen:   make(map[schedule.Worker]time.Time),
		failed:     make(map[schedule.Worker]bool),
		ewma:       make(map[schedule.Worker]float64),
		opN:        make(map[schedule.Worker]int),
		straggling: make(map[schedule.Worker]float64),
		reported:   make(map[schedule.Worker]float64),
		onFail:     onFail,
		now:        time.Now,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// OnStraggle registers the gray-failure callback; it runs once per flagged
// worker (until cleared) with the observed slowdown factor.
func (d *Detector) OnStraggle(cb func(w schedule.Worker, factor float64)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onStraggle = cb
}

// Heartbeat records a liveness signal from a worker. A heartbeat from a
// previously failed worker does not automatically revive it — re-joins are
// coordinated explicitly at iteration boundaries (§3.4).
func (d *Detector) Heartbeat(w schedule.Worker) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastSeen[w] = d.now()
}

// Register begins tracking a worker (counts as an initial heartbeat).
func (d *Detector) Register(w schedule.Worker) { d.Heartbeat(w) }

// Failed reports whether the detector has marked the worker failed.
func (d *Detector) Failed(w schedule.Worker) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed[w]
}

// Start launches the sweep loop; Stop terminates it.
func (d *Detector) Start(interval time.Duration) {
	go func() {
		defer close(d.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-tick.C:
				d.sweep()
			}
		}
	}()
}

// Stop shuts the sweep loop down.
func (d *Detector) Stop() {
	close(d.stop)
	<-d.done
}

// sweep marks workers whose heartbeats have lapsed, then re-evaluates the
// straggler statistics.
func (d *Detector) sweep() {
	now := d.now()
	var newly []schedule.Worker
	d.mu.Lock()
	for w, seen := range d.lastSeen {
		if d.failed[w] {
			continue
		}
		if now.Sub(seen) > d.Timeout {
			d.failed[w] = true
			newly = append(newly, w)
		}
	}
	cb := d.onFail
	rec := d.rec
	d.mu.Unlock()
	if rec != nil && rec.Enabled() {
		for _, w := range newly {
			rec.Event(obs.Event{Kind: obs.EvKill, At: -1, Iter: -1, Wall: now,
				Worker: w, HasWorker: true, Detail: "heartbeat lapse"})
		}
	}
	if cb != nil {
		for _, w := range newly {
			cb(w)
		}
	}
	d.DetectStragglers()
}

// ObserveOp records one measured compute-op duration for a worker — the
// health-statistics half of the §5 heartbeat payload. The duration feeds
// the worker's EWMA, so drifting slowdowns keep moving the observed
// factor after the first flag. It also counts as a liveness signal.
func (d *Detector) ObserveOp(w schedule.Worker, t schedule.OpType, dur time.Duration) {
	if t == schedule.Optimizer {
		return // includes all-reduce wait time; not a compute health signal
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastSeen[w] = d.now()
	alpha := d.EWMAAlpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.25
	}
	if d.opN[w] == 0 {
		d.ewma[w] = float64(dur)
	} else {
		d.ewma[w] = alpha*float64(dur) + (1-alpha)*d.ewma[w]
	}
	d.opN[w]++
}

// DetectStragglers evaluates the tracked op timings now: each live
// worker's EWMA is compared against the fleet median, and the straggler
// callback fires only when the result would change the routing — first
// crossing of StraggleFactor, a ReflagDelta drift of an already-flagged
// worker (clear-and-reflag at the new factor), or recovery below
// ClearFactor (reported as factor 1, the cost model's clear value). The
// returned map holds every currently flagged worker and its latest
// observed slowdown.
func (d *Detector) DetectStragglers() map[schedule.Worker]float64 {
	type change struct {
		w      schedule.Worker
		factor float64
	}
	var fire []change
	d.mu.Lock()
	if d.StraggleFactor > 1 {
		minObs := d.MinObservations
		if minObs <= 0 {
			minObs = 4
		}
		clear := d.ClearFactor
		if clear <= 0 || clear > d.StraggleFactor {
			clear = 0.8 * d.StraggleFactor
		}
		delta := d.ReflagDelta
		if delta <= 0 {
			delta = 0.25
		}
		var means []float64
		perWorker := make(map[schedule.Worker]float64)
		for w, n := range d.opN {
			if n < minObs || d.failed[w] {
				continue
			}
			m := d.ewma[w]
			perWorker[w] = m
			means = append(means, m)
		}
		if len(means) >= 2 {
			sort.Float64s(means)
			median := means[len(means)/2]
			if median > 0 {
				for w, m := range perWorker {
					factor := m / median
					rep, flagged := d.reported[w]
					switch {
					case !flagged && factor >= d.StraggleFactor:
						d.reported[w] = factor
						d.straggling[w] = factor
						fire = append(fire, change{w, factor})
					case flagged && factor < clear:
						// Recovered through the hysteresis band: clear the
						// mark (and the plan namespace moves back) — the
						// worker must re-earn the flag if it slows again.
						delete(d.reported, w)
						delete(d.straggling, w)
						fire = append(fire, change{w, 1})
					case flagged && abs(factor-rep)/rep >= delta:
						// Drifted enough to change the routing: re-flag at
						// the new factor so the planner re-solves.
						d.reported[w] = factor
						d.straggling[w] = factor
						fire = append(fire, change{w, factor})
					case flagged:
						d.straggling[w] = factor // track drift below the re-plan threshold
					}
				}
			}
		}
	}
	out := make(map[schedule.Worker]float64, len(d.straggling))
	for w, f := range d.straggling {
		out[w] = f
	}
	cb := d.onStraggle
	rec := d.rec
	d.mu.Unlock()
	sort.Slice(fire, func(i, j int) bool {
		if fire[i].w.Stage != fire[j].w.Stage {
			return fire[i].w.Stage < fire[j].w.Stage
		}
		return fire[i].w.Pipeline < fire[j].w.Pipeline
	})
	if rec != nil && rec.Enabled() {
		for _, c := range fire {
			rec.Event(obs.Event{Kind: obs.EvStraggler, At: -1, Iter: -1, Wall: d.now(),
				Worker: c.w, HasWorker: true,
				Detail: fmt.Sprintf("factor %.2f", c.factor),
				Attrs:  []obs.Attr{{Key: "factor-pct", Val: int64(c.factor * 100)}}})
		}
	}
	if cb != nil {
		for _, c := range fire {
			cb(c.w, c.factor)
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Stragglers returns the currently flagged gray-failed workers and their
// observed slowdown factors.
func (d *Detector) Stragglers() map[schedule.Worker]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[schedule.Worker]float64, len(d.straggling))
	for w, f := range d.straggling {
		out[w] = f
	}
	return out
}

// ClearStraggler unflags a worker (recovered gray failure) and resets its
// timing statistics so it must re-earn trust.
func (d *Detector) ClearStraggler(w schedule.Worker) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.straggling, w)
	delete(d.reported, w)
	delete(d.ewma, w)
	delete(d.opN, w)
}
