// Package tensor provides the dense float64 matrix operations the
// reproduction's neural-network substrate (internal/nn) is built on. It is
// deliberately small: deterministic, allocation-explicit (every op that
// returns a new matrix is a method on *Arena, nil meaning the Go heap),
// row-major, with the fused transpose-multiply forms needed by decoupled
// backpropagation.
package tensor

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zero matrix on the Go heap.
func New(rows, cols int) *Matrix { return (*Arena)(nil).New(rows, cols) }

// Randn fills a new matrix with N(0, stddev) values from rng.
func (ar *Arena) Randn(rows, cols int, stddev float64, rng *rand.Rand) *Matrix {
	m := ar.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * stddev
	}
	return m
}

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatMul returns a @ b.
func (ar *Arena) MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := ar.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulBT returns a @ bᵀ — the backward-input form dX = dY @ Wᵀ.
func (ar *Arena) MatMulBT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulBT shape mismatch %dx%d @ (%dx%d)T", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := ar.New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

// MatMulAT returns aᵀ @ b — the backward-weight form dW = Xᵀ @ dY.
func (ar *Arena) MatMulAT(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: matmulAT shape mismatch (%dx%d)T @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := ar.New(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*b.Cols : (k+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*b.Cols : (i+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Matrix) {
	mustSameShape("add-in-place", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sub returns a - b.
func (ar *Arena) Sub(a, b *Matrix) *Matrix {
	mustSameShape("sub", a, b)
	out := ar.New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Scale returns s * a.
func (ar *Arena) Scale(a *Matrix, s float64) *Matrix {
	out := ar.New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// AddRowVector adds row vector v (1 x Cols) to every row of a.
func (ar *Arena) AddRowVector(a, v *Matrix) *Matrix {
	if v.Rows != 1 || v.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: row vector %dx%d for %dx%d matrix", v.Rows, v.Cols, a.Rows, a.Cols))
	}
	out := ar.New(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + v.Data[j]
		}
	}
	return out
}

// ColSums returns the column sums of a as a 1 x Cols vector (the bias
// gradient reduction).
func (ar *Arena) ColSums(a *Matrix) *Matrix {
	out := ar.New(1, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j] += a.Data[i*a.Cols+j]
		}
	}
	return out
}

// Apply returns f mapped over a.
func (ar *Arena) Apply(a *Matrix, f func(float64) float64) *Matrix {
	out := ar.New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// Hadamard returns the element-wise product.
func (ar *Arena) Hadamard(a, b *Matrix) *Matrix {
	mustSameShape("hadamard", a, b)
	out := ar.New(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Equal reports exact element-wise equality.
func Equal(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

func mustSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
