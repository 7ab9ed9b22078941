package dtrain

import (
	"math/rand"

	"recycle/internal/tensor"
)

// Dataset produces deterministic synthetic regression micro-batches: the
// inputs are seeded per (iteration, pipeline, micro-batch) and the targets
// come from a fixed random teacher network, so every run — fault-free or
// adapted — sees identical data.
type Dataset struct {
	InDim, OutDim, MicroBatch int
	seed                      int64
	teacher                   *tensor.Matrix
}

// NewDataset builds a dataset with a linear teacher.
func NewDataset(inDim, outDim, microBatch int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	var heap *tensor.Arena // the teacher outlives every iteration
	return &Dataset{
		InDim: inDim, OutDim: outDim, MicroBatch: microBatch,
		seed:    seed,
		teacher: heap.Randn(inDim, outDim, 0.5, rng),
	}
}

// splitmix is a counter-based rand.Source64 (Steele, Lea & Flood's
// SplitMix64): its whole state is one word, so seeding a stream per
// micro-batch costs nothing — math/rand's own source fills a 607-word
// table per seed, which used to be a fifth of a live iteration's CPU.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// Input returns the micro-batch inputs for (iter, pipeline, mb), carved
// from ar (nil: the Go heap).
func (d *Dataset) Input(ar *tensor.Arena, iter, pipeline, mb int) *tensor.Matrix {
	s := d.seed*1_000_003 + int64(iter)*7919 + int64(pipeline)*97 + int64(mb)
	rng := rand.New(&splitmix{state: uint64(s)})
	return ar.Randn(d.MicroBatch, d.InDim, 1.0, rng)
}

// Target returns the teacher outputs for the micro-batch, carved from ar.
func (d *Dataset) Target(ar *tensor.Arena, iter, pipeline, mb int) *tensor.Matrix {
	return ar.MatMul(d.Input(ar, iter, pipeline, mb), d.teacher)
}
