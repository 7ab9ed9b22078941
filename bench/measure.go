package main

import (
	"fmt"
	"runtime"
	"time"
)

// result is one run of one workload: what the contract's last-line object
// is built from, plus what the table prints beside it.
type result struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	samples   int // timed ops behind the latency metrics
	metrics   map[string]float64
	errors    []string // first few failures, for the reader
}

func (r *result) fail(n int, why string) {
	r.failed += n
	if n > 0 && len(r.errors) < 5 {
		r.errors = append(r.errors, why)
	}
}

const mib = 1 << 20

// retained returns the live heap in MB after two forced collections: the
// second empties what the first moved to the sync.Pool victim caches.
func retained() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// run sets the workload up, measures it for the given seconds in a closed
// loop with one client, and checks its outputs. With a tracer it is the
// traced pass: one set-up, spans around every call into a layer, the repo's
// recorder attached, and the returned runner is handed to the layer probes.
func run(w workloadDef, seed int64, seconds float64, sz sizing, tr *tracer) (*result, runner, error) {
	res := &result{workload: w.name, seed: seed, traced: tr != nil, metrics: map[string]float64{}}

	// Set-up runs several times so setup_s is a median; the last one is
	// measured. A traced pass reports no setup_s and sets up once.
	setups := sz.setups
	if tr != nil {
		setups = 1
	}
	var r runner
	var setupS []float64
	for i := 0; i < setups; i++ {
		r = nil // let the previous set-up be collected before the next is timed
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = setup(w.name, seed, sz, tr); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	warmN, warmFailed := r.warm()
	res.attempted += warmN
	res.fail(warmFailed, "set-up: warm-up output differs from its reference")
	if tr != nil {
		tr.spans, tr.op = tr.spans[:0], 0 // set-up spans are not part of any op
	}

	// The measured loop. Ops run in batches: between batches the clock is
	// read, allocation is sampled and the checkers run, none of which is
	// attributed to an op.
	var opMs []float64
	var allocBytes uint64
	retainedMB := -1.0
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		runtime.ReadMemStats(&ms0)
		for i := 0; i < w.batch; i++ {
			d, err := r.op(tr)
			tr.nextOp()
			res.attempted++
			if err != nil {
				res.fail(1, err.Error())
				continue
			}
			opMs = append(opMs, float64(d)/float64(time.Millisecond))
		}
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		res.fail(r.verify(), "output differs from its reference")
		if retainedMB < 0 && len(opMs) >= w.retainAt {
			retainedMB = retained()
		}
	}
	if retainedMB < 0 { // the run was too short to reach retainAt
		retainedMB = retained()
	}
	if err := r.finish(); err != nil {
		res.fail(1, err.Error())
	}
	res.samples = len(opMs)
	if len(opMs) == 0 {
		return res, r, nil
	}
	if tr == nil {
		res.metrics["setup_s"] = median(setupS)
		res.metrics["ops_per_s"] = overWindows(opMs, w.window, func(ms []float64) float64 { return 1e3 * float64(len(ms)) / sum(ms) })
		res.metrics["op_ms_p50"] = median(opMs)
		res.metrics["op_ms_tail"] = overWindows(opMs, w.window, func(ms []float64) float64 { return percentile(ms, w.tail) })
		res.metrics["alloc_mb_per_op"] = float64(allocBytes) / mib / float64(len(opMs))
		res.metrics["retained_mb"] = retainedMB
	}
	return res, r, nil
}

// overWindows applies f to each full window of n consecutive samples and
// returns the median of the results, so a burst of machine noise spoils one
// window and not the metric (f of all samples when there is no full window).
func overWindows(xs []float64, n int, f func([]float64) float64) float64 {
	if len(xs) < n {
		return f(xs)
	}
	var vals []float64
	for i := 0; i+n <= len(xs); i += n {
		vals = append(vals, f(xs[i:i+n]))
	}
	return median(vals)
}
