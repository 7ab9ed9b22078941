package experiments

import (
	"fmt"
	"strings"
	"time"

	"recycle/internal/dtrain"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// Table2Row compares the simulator's predicted iteration latency against
// the live runtime's measured latency for one configuration.
type Table2Row struct {
	Name         string
	Failures     int
	PredictedSec float64
	MeasuredSec  float64
	GapPct       float64 // (measured - predicted) / measured * 100
}

// Table2 reproduces the simulator-fidelity check of §6.3: the paper
// validates its simulator against the real cluster within 5.98%. Here the
// comparison is by construction on one artifact: the runtime's plan
// service compiles the adaptive schedule into a Program, the live runtime
// (internal/dtrain) interprets that Program with real tensors and
// calibrated per-op kernel delays standing in for GPU kernels, and the
// discrete-event simulator executes the *same* Program in virtual time
// under the same per-op durations. The gap measures exactly what the
// virtual clock abstracts away — goroutine scheduling, channel transport,
// barrier skew — not any divergence in op ordering, which is impossible:
// both executors consume the instruction streams schedule.Compile emitted.
func Table2() ([]Table2Row, string, error) {
	rows, runtimes, err := table2Model()
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: live runtime vs simulator, one compiled Program each\n")
	fmt.Fprintf(&b, "%-12s %9s %14s %13s %8s\n", "config", "failures", "predicted(ms)", "measured(ms)", "gap%")
	for k, rt := range runtimes {
		const warm, meas = 1, 2
		for i := 0; i < warm; i++ {
			if _, err := rt.RunIteration(); err != nil {
				return nil, "", err
			}
		}
		start := time.Now()
		for i := 0; i < meas; i++ {
			if _, err := rt.RunIteration(); err != nil {
				return nil, "", err
			}
		}
		measured := time.Since(start).Seconds() / meas

		row := &rows[k]
		row.MeasuredSec = measured
		row.GapPct = (measured - row.PredictedSec) / measured * 100
		fmt.Fprintf(&b, "%-12s %9d %14.2f %13.2f %+8.2f\n", row.Name, row.Failures, row.PredictedSec*1e3, measured*1e3, row.GapPct)
	}
	return rows, b.String(), nil
}

// table2Model is Table 2's modeled half: each configuration's live runtime,
// its failures applied, and a row holding its name, failure count and
// predicted iteration latency — the runtime's own compiled Program executed
// in virtual time with the calibrated kernel delays as op durations (1
// duration unit = 1 microsecond). Nothing runs on the live runtime yet.
func table2Model() ([]Table2Row, []*dtrain.Runtime, error) {
	// Per-op kernel delays in microseconds (TF : TBI : TBW = 1 : 1 : 1).
	delays := schedule.Durations{F: 10000, BInput: 10000, BWeight: 10000, Opt: 15000, Comm: 0}
	configs := []struct {
		name     string
		cfg      dtrain.Config
		failures []schedule.Worker
	}{
		{"pipe2x2", dtrain.Config{DP: 2, PP: 2, MB: 8, InDim: 16, Hidden: 24, OutDim: 8, MicroBatchSize: 4, Seed: 3, LR: 1e-3, Delays: delays}, nil},
		{"pipe2x2-f1", dtrain.Config{DP: 2, PP: 2, MB: 8, InDim: 16, Hidden: 24, OutDim: 8, MicroBatchSize: 4, Seed: 3, LR: 1e-3, Delays: delays},
			[]schedule.Worker{{Stage: 1, Pipeline: 1}}},
		{"pipe3x4", dtrain.Config{DP: 3, PP: 4, MB: 6, InDim: 16, Hidden: 24, OutDim: 8, MicroBatchSize: 4, Seed: 4, LR: 1e-3, Delays: delays}, nil},
		{"pipe3x4-f1", dtrain.Config{DP: 3, PP: 4, MB: 6, InDim: 16, Hidden: 24, OutDim: 8, MicroBatchSize: 4, Seed: 4, LR: 1e-3, Delays: delays},
			[]schedule.Worker{{Stage: 2, Pipeline: 1}}},
		{"pipe4x2-f2", dtrain.Config{DP: 4, PP: 2, MB: 8, InDim: 16, Hidden: 24, OutDim: 8, MicroBatchSize: 4, Seed: 5, LR: 1e-3, Delays: delays},
			[]schedule.Worker{{Stage: 1, Pipeline: 1}, {Stage: 0, Pipeline: 2}}},
	}
	rows := make([]Table2Row, 0, len(configs))
	runtimes := make([]*dtrain.Runtime, 0, len(configs))
	for _, c := range configs {
		rt := dtrain.New(c.cfg)
		for _, w := range c.failures {
			rt.Fail(w)
		}
		prog, err := rt.Program()
		if err != nil {
			return nil, nil, err
		}
		view, err := prog.WithCosts(schedule.NewCostTable(prog.Shape, func(_ schedule.Worker, t schedule.OpType) int64 { return delays.Of(t) }))
		if err != nil {
			return nil, nil, err
		}
		ex, err := sim.Plain(view)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Table2Row{Name: c.name, Failures: len(c.failures), PredictedSec: float64(ex.Makespan) * 1e-6})
		runtimes = append(runtimes, rt)
	}
	return rows, runtimes, nil
}
