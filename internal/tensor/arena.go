package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Arena is a bump allocator for tensors that all die together — the
// per-iteration tensors of one pipeline stage. Every allocating op of this
// package is a method on *Arena; a nil Arena allocates on the Go heap, which
// is what parameters, optimizer state and anything else that outlives an
// iteration use. An Arena owns no memory between Resets: chunks are taken
// from a package-level pool on first use and handed back by Reset, so an idle
// arena pins nothing and the pool is the garbage collector's to empty.
// An Arena is not safe for concurrent use.
type Arena struct {
	chunks []*chunk // every chunk taken since the last Reset; the last one is being carved
	nd, nm int      // elements and headers carved from the last chunk
}

const (
	chunkFloats = 4096 // elements per chunk; larger tensors go to the heap
	chunkMats   = 64   // matrix headers per chunk
)

// chunk is the pool's unit: element storage plus the headers that point
// into it, so a carved Matrix costs no allocation at all.
type chunk struct {
	mats [chunkMats]Matrix
	data [chunkFloats]float64
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// New carves a zero rows x cols matrix out of the arena (out of the heap
// when ar is nil or the matrix exceeds a chunk).
func (ar *Arena) New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if ar == nil || n > chunkFloats {
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n)}
	}
	if len(ar.chunks) == 0 || ar.nd+n > chunkFloats || ar.nm == chunkMats {
		ar.chunks = append(ar.chunks, chunkPool.Get().(*chunk))
		ar.nd, ar.nm = 0, 0
	}
	c := ar.chunks[len(ar.chunks)-1]
	m := &c.mats[ar.nm]
	*m = Matrix{Rows: rows, Cols: cols, Data: c.data[ar.nd : ar.nd+n : ar.nd+n]}
	clear(m.Data)
	ar.nd, ar.nm = ar.nd+n, ar.nm+1
	return m
}

// Reset returns the arena's chunks to the pool: every matrix carved since
// the last Reset is dead from here on. Under the race detector the recycled
// memory is poisoned — elements NaN, headers empty — so a use after Reset
// surfaces as a non-finite loss or a bounds panic instead of a stale read.
func (ar *Arena) Reset() {
	for i, c := range ar.chunks {
		if raceEnabled {
			clear(c.mats[:])
			for j := range c.data {
				c.data[j] = math.NaN()
			}
		}
		chunkPool.Put(c)
		ar.chunks[i] = nil
	}
	ar.chunks = ar.chunks[:0]
}
