package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// heap is the nil arena: ops on it allocate on the Go heap.
var heap *Arena

// transpose is a reference implementation for property tests.
func transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

func randMat(r, c int, seed int64) *Matrix {
	return heap.Randn(r, c, 1, rand.New(rand.NewSource(seed)))
}

// maxAbsDiff returns the largest absolute element difference.
func maxAbsDiff(a, b *Matrix) float64 {
	mustSameShape("maxabsdiff", a, b)
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// sum returns a + b as a new heap matrix.
func sum(a, b *Matrix) *Matrix {
	out := &Matrix{Rows: a.Rows, Cols: a.Cols, Data: slices.Clone(a.Data)}
	AddInPlace(out, b)
	return out
}

// TestMatMulIdentity checks A @ I == A.
func TestMatMulIdentity(t *testing.T) {
	a := randMat(3, 4, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Data[i*id.Cols+i] = 1
	}
	if !Equal(heap.MatMul(a, id), a) {
		t.Fatal("A @ I != A")
	}
}

// TestFusedTransposeForms property-checks the backward-pass kernels
// against explicit transposition: heap.MatMulBT(a,b) == a @ bT and
// heap.MatMulAT(a,b) == aT @ b.
func TestFusedTransposeForms(t *testing.T) {
	check := func(seed int64, mR, kR, nR uint8) bool {
		m, k, n := int(mR%5)+1, int(kR%5)+1, int(nR%5)+1
		a := randMat(m, k, seed)
		b := randMat(n, k, seed+1) // for BT: a(m,k) @ b(n,k)T -> (m,n)
		c := randMat(m, n, seed+2) // for AT: a(m,k)T @ c(m,n) -> (k,n)
		bt := heap.MatMulBT(a, b)
		want := heap.MatMul(a, transpose(b))
		if maxAbsDiff(bt, want) > 1e-12 {
			return false
		}
		at := heap.MatMulAT(a, c)
		want2 := heap.MatMul(transpose(a), c)
		return maxAbsDiff(at, want2) <= 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAddSubScale checks basic element-wise algebra.
func TestAddSubScale(t *testing.T) {
	a := randMat(3, 3, 5)
	b := randMat(3, 3, 6)
	if maxAbsDiff(heap.Sub(sum(a, b), b), a) > 1e-15 {
		t.Fatal("(a+b)-b != a")
	}
	if maxAbsDiff(heap.Scale(a, 2), sum(a, a)) > 1e-15 {
		t.Fatal("2a != a+a")
	}
}

// TestColSumsAndRowVector checks the bias-path helpers.
func TestColSumsAndRowVector(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	sums := heap.ColSums(a)
	for j, want := range []float64{5, 7, 9} {
		if sums.Data[j] != want {
			t.Fatalf("colsum[%d] = %v, want %v", j, sums.Data[j], want)
		}
	}
	v := &Matrix{Rows: 1, Cols: 3, Data: []float64{10, 20, 30}}
	got := heap.AddRowVector(a, v)
	if got.Data[1*got.Cols+2] != 36 {
		t.Fatalf("AddRowVector wrong: %v", got.Data)
	}
}

// TestHadamardAndApply checks element-wise ops.
func TestHadamardAndApply(t *testing.T) {
	a := &Matrix{Rows: 1, Cols: 3, Data: []float64{1, -2, 3}}
	b := &Matrix{Rows: 1, Cols: 3, Data: []float64{2, 2, 2}}
	if h := heap.Hadamard(a, b); h.Data[1] != -4 {
		t.Fatalf("hadamard wrong: %v", h.Data)
	}
	sq := heap.Apply(a, func(v float64) float64 { return v * v })
	if sq.Data[1] != 4 {
		t.Fatalf("apply wrong: %v", sq.Data)
	}
}

// TestShapeMismatchPanics checks defensive shape validation.
func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	heap.MatMul(randMat(2, 3, 1), randMat(2, 3, 2))
}

// TestArenaRecyclesChunks carves past one chunk, resets and carves again:
// the second pass must hand out zeroed matrices and — off the race
// detector, whose sync.Pool drops items at random — reuse the first pass's
// backing memory without allocating.
func TestArenaRecyclesChunks(t *testing.T) {
	var ar Arena
	const rows, cols, n = 8, 16, 2*chunkFloats/(8*16) + 3 // > 2 chunks of elements
	carve := func() []*Matrix {
		ms := make([]*Matrix, n)
		for i := range ms {
			ms[i] = ar.New(rows, cols)
		}
		return ms
	}
	first := carve()
	if len(ar.chunks) < 3 {
		t.Fatalf("carved %d matrices into %d chunks, want the arena to spill past two", n, len(ar.chunks))
	}
	seen := make(map[*float64]bool, n)
	chunks := make(map[*chunk]bool)
	for _, c := range ar.chunks {
		chunks[c] = true
	}
	for _, m := range first {
		for i := range m.Data {
			if m.Data[i] != 0 {
				t.Fatal("fresh arena matrix not zeroed")
			}
			m.Data[i] = 7 // dirty it for the next pass
		}
		if seen[&m.Data[0]] {
			t.Fatal("two live matrices share backing memory")
		}
		seen[&m.Data[0]] = true
	}
	ar.Reset()
	if len(ar.chunks) != 0 {
		t.Fatalf("Reset left %d chunks pinned by the arena", len(ar.chunks))
	}
	for _, m := range carve() {
		for _, v := range m.Data {
			if v != 0 {
				t.Fatal("recycled arena matrix not zeroed")
			}
		}
	}
	reused := 0
	for _, c := range ar.chunks {
		if chunks[c] {
			reused++
		}
	}
	ar.Reset()
	// An oversized matrix and a nil arena both fall through to the heap.
	if big := ar.New(1, chunkFloats+1); len(big.Data) != chunkFloats+1 || len(ar.chunks) != 0 {
		t.Fatal("oversized matrix was carved from a chunk")
	}
	if raceEnabled {
		return
	}
	if reused != len(chunks) {
		t.Fatalf("second pass reused %d of the first pass's %d chunks", reused, len(chunks))
	}
	ms := make([]*Matrix, n)
	if got := testing.AllocsPerRun(10, func() {
		for i := range ms {
			ms[i] = ar.New(rows, cols)
		}
		ar.Reset()
	}); got != 0 {
		t.Fatalf("warm carve/Reset cycle allocates %.0f objects, want 0", got)
	}
}
