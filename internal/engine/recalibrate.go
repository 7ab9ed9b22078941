package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"recycle/internal/obs"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// DefaultRecalibrateThreshold is the relative measured-vs-modeled drift a
// worker must exceed before Recalibrate touches the cost model. The 5%
// band absorbs measurement noise (scheduling jitter, cache effects) so the
// loop does not thrash the plan namespace on every call.
const DefaultRecalibrateThreshold = 0.05

// Recalibration reports one measured-cost feedback pass.
type Recalibration struct {
	// Drifted is true when at least one worker exceeded the threshold and
	// the cost model was updated (and the working set re-planned).
	Drifted bool
	// MaxDrift is the largest relative deviation observed between the
	// normalized measured and modeled per-worker compute times.
	MaxDrift float64
	// Applied maps each adjusted worker to its new cost multiplier
	// (quantized to 2 decimals; 1.0 entries mean the mark was cleared).
	Applied map[schedule.Worker]float64
	// Replanned lists the normalized failure counts that were re-solved
	// under the new model.
	Replanned []int
}

// Recalibrate closes the measured → cost-model loop: it compares each
// worker's measured mean compute time (dtrain.Runtime.MeasuredWorkerTimes)
// against the model's expectation, and when the relative drift of any
// worker exceeds the threshold it folds the residual into the model's
// per-worker multipliers (copy-on-write, like MarkStraggler) and re-solves
// every previously planned failure count under the new namespace.
//
// Measured and modeled times are both median-normalized first, so a
// uniform slowdown of the whole fleet — a clock change, a shared
// interconnect regression — cancels out instead of marking every worker a
// straggler; only relative imbalance recalibrates. Multipliers are
// quantized to 2 decimals to keep sub-noise drift from minting a fresh
// plan namespace per call. Each re-solve is an ordinary Plan under the new
// namespace, so it matches what a fresh engine built with the new model
// serves.
func (e *Engine) Recalibrate(measured map[schedule.Worker]time.Duration) (Recalibration, error) {
	rec, err := e.recalibrateCosts(measured)
	if err != nil || !rec.Drifted {
		return rec, err
	}
	e.plannedMu.Lock()
	counts := make([]int, 0, len(e.plannedN))
	for n := range e.plannedN {
		counts = append(counts, n)
	}
	e.plannedMu.Unlock()
	sort.Ints(counts)

	// The working-set re-solves are independent; fan them out over the
	// same bounded pool Warm uses instead of serializing them behind one
	// another.
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, n := range counts {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			mu.Lock()
			stop := firstErr != nil
			mu.Unlock()
			if stop {
				return
			}
			if _, err := e.Plan(n); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("engine: re-planning %d failures after recalibration: %w", n, err)
				}
				mu.Unlock()
			}
		}(n)
	}
	wg.Wait()
	if firstErr != nil {
		return rec, firstErr
	}
	rec.Replanned = counts
	e.observe(obs.EvRecalibrate, "",
		obs.Attr{Key: "adjusted", Val: int64(len(rec.Applied))},
		obs.Attr{Key: "replanned", Val: int64(len(rec.Replanned))},
		obs.Attr{Key: "maxdrift-pct", Val: int64(rec.MaxDrift * 100)})
	return rec, nil
}

// recalibrateCosts is Recalibrate's model half: it folds the measured
// drift into the cost model and installs it. The whole read-modify-write
// runs under confMu, so a MarkStraggler landing mid-pass is composed with,
// never overwritten.
func (e *Engine) recalibrateCosts(measured map[schedule.Worker]time.Duration) (Recalibration, error) {
	var rec Recalibration
	ws := make([]schedule.Worker, 0, len(measured))
	for w, d := range measured {
		if d > 0 {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		return rec, nil
	}
	schedule.SortWorkers(ws)

	e.confMu.Lock()
	defer e.confMu.Unlock()
	c := e.config()
	model := c.Costs
	if model == nil {
		model = profile.UniformCost(c.Stats)
	}
	ms := make([]float64, len(ws))
	es := make([]float64, len(ws))
	for i, w := range ws {
		ms[i] = float64(measured[w])
		es[i] = float64(model.Of(w, schedule.F) + model.Of(w, schedule.BInput) + model.Of(w, schedule.BWeight))
	}
	medM, medE := median(ms), median(es)
	if medM <= 0 || medE <= 0 {
		return rec, fmt.Errorf("engine: degenerate recalibration measurements (median %v / %v)", medM, medE)
	}

	next := model
	for i, w := range ws {
		norm := (ms[i] / medM) / (es[i] / medE)
		if d := math.Abs(norm - 1); d > rec.MaxDrift {
			rec.MaxDrift = d
		}
		if math.Abs(norm-1) < e.recalThreshold {
			continue
		}
		cur := 1.0
		if f, ok := model.WorkerScale[w]; ok && f > 0 {
			cur = f
		}
		q := math.Round(cur*norm*100) / 100
		if q < 0.01 {
			q = 0.01
		}
		if q == cur {
			continue
		}
		if rec.Applied == nil {
			rec.Applied = make(map[schedule.Worker]float64)
		}
		rec.Applied[w] = q
		next = next.WithWorkerScale(w, q)
	}
	if len(rec.Applied) == 0 {
		return rec, nil
	}
	rec.Drifted = true
	e.installCostsLocked(c, next)
	return rec, nil
}

// median returns the middle value of the sample (mean of the middle pair
// for even sizes).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
