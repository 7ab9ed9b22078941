package dtrain

import (
	"math"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/nn"
	"recycle/internal/profile"
	"recycle/internal/schedule"
	"recycle/internal/tensor"
)

// referenceLosses trains cfg's model the plain synchronous way, on one
// replica and one goroutine: each iteration runs every micro-batch of every
// pipeline, in (home, mb) order, forward through every stage and back,
// then each stage averages the weight-gradient contributions in that order
// and takes one AdamW step. It returns each iteration's mean loss: what
// every pipelined run of cfg must compute bit for bit, whatever it lost.
func referenceLosses(cfg Config, iters int) []float64 {
	stages := nn.MLPStages(cfg.PP, cfg.InDim, cfg.Hidden, cfg.OutDim, cfg.Seed+7)
	opts := make([]*nn.AdamW, cfg.PP)
	for i := range opts {
		opts[i] = nn.NewAdamW(cfg.LR)
	}
	data := NewDataset(cfg.InDim, cfg.OutDim, cfg.MicroBatchSize, cfg.Seed)
	last := stages[cfg.PP-1]
	contribs := make([][][]*tensor.Matrix, cfg.PP)
	losses := make([]float64, iters)
	for it := range losses {
		var sum float64
		for home := 0; home < cfg.DP; home++ {
			for mb := 0; mb < cfg.MB; mb++ {
				key := nn.MBKey{Pipeline: home, MB: mb}
				x := data.Input(stages[0].Arena(), it, home, mb)
				y := x
				for _, st := range stages {
					y = st.Forward(key, y)
				}
				loss, dy := nn.MSELoss(last.Arena(), y, data.Target(last.Arena(), x))
				sum += loss
				for s := cfg.PP - 1; s >= 0; s-- {
					dy = stages[s].BackwardInput(key, dy)
					contribs[s] = append(contribs[s], stages[s].BackwardWeight(key))
				}
			}
		}
		for s, st := range stages {
			st.ReduceContributions(contribs[s])
			st.StepOnce(opts[s], it+1)
			st.ReleaseStashes()
			contribs[s] = contribs[s][:0]
		}
		losses[it] = sum / float64(cfg.DP*cfg.MB)
	}
	return losses
}

// TestReferenceMatchesEverySource is the pipeline against plain synchronous
// training: Programs solved under each technique set of the Fig 11
// ablation, and under a cost model with a straggler, each installed through
// SetProgramSource, train fault-free, around one and two workers failed at
// a boundary, and through a mid-iteration kill re-joined at the next
// boundary. Every iteration's loss must equal referenceLosses' bit for bit.
func TestReferenceMatchesEverySource(t *testing.T) {
	cfg := Config{
		DP: 3, PP: 3, MB: 4,
		InDim: 6, Hidden: 8, OutDim: 3, MicroBatchSize: 4,
		Seed: 11, LR: 1e-2,
	}
	const iters = 4
	want := referenceLosses(cfg, iters)
	job, stats := engine.ShapeJob(cfg.DP, cfg.PP, cfg.MB)
	techniques := func(tq engine.Techniques) ProgramSource {
		return engine.New(job, stats, engine.Options{Techniques: &tq, UnrollIterations: 1})
	}
	sources := []struct {
		name string
		src  func() ProgramSource
	}{
		{"adaptive", func() ProgramSource { return techniques(engine.Techniques{}) }},
		{"decoupled", func() ProgramSource { return techniques(engine.Techniques{DecoupledBackProp: true}) }},
		{"all", func() ProgramSource { return techniques(engine.AllTechniques) }},
		{"straggler", func() ProgramSource {
			return costSource(cfg, profile.UniformCost(profile.Unit()).WithWorkerScale(schedule.Worker{Stage: 0, Pipeline: 1}, 2))
		}},
	}
	w1, w2 := schedule.Worker{Stage: 1, Pipeline: 0}, schedule.Worker{Stage: 2, Pipeline: 1}
	// Each scenario trains iters iterations and returns their losses.
	scenarios := []struct {
		name string
		run  func(rt *Runtime) []float64
	}{
		{"fault-free", func(rt *Runtime) []float64 { return train(t, rt, iters) }},
		{"one-failure", func(rt *Runtime) []float64 {
			got := train(t, rt, 1)
			rt.Fail(w1)
			return append(got, train(t, rt, iters-1)...)
		}},
		{"two-failures", func(rt *Runtime) []float64 {
			got := train(t, rt, 1)
			rt.Fail(w1)
			rt.Fail(w2)
			return append(got, train(t, rt, iters-1)...)
		}},
		{"kill", func(rt *Runtime) []float64 {
			got := train(t, rt, 1)
			op, _ := killOp(t, rt, w1, 0)
			kill, post := op()
			return append(append(got, kill, post), train(t, rt, iters-3)...)
		}},
	}
	for _, s := range sources {
		for _, sc := range scenarios {
			t.Run(s.name+"/"+sc.name, func(t *testing.T) {
				rt := New(cfg)
				rt.SetProgramSource(s.src())
				got := sc.run(rt)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("iteration %d: loss %v, reference %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// train runs n healthy-path iterations of rt and returns their losses.
func train(t *testing.T, rt *Runtime, n int) []float64 {
	t.Helper()
	out := make([]float64, n)
	for i := range out {
		var err error
		if out[i], err = rt.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
