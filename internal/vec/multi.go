package vec

import (
	"fmt"
	"math"

	"repro/internal/kernel"
)

// Multi is a column-block multivector: S dense vectors of length N stored
// in one backing slice, column j occupying Data[j*N : (j+1)*N]. It is the
// multi-right-hand-side analogue of []float64 — the paper's long-vector
// argument (§3.1: amortize per-operation startup over longer operands)
// extends from matrix–vector to matrix–multivector work, and the
// column-contiguous layout keeps every per-column view a zero-copy slice
// so single-vector kernels and preconditioner sweeps apply unchanged.
type Multi struct {
	N, S int
	Data []float64
}

// NewMulti returns a zeroed n×s multivector.
func NewMulti(n, s int) *Multi {
	if n < 0 || s < 0 {
		panic(fmt.Sprintf("vec: NewMulti dims %d×%d", n, s))
	}
	return &Multi{N: n, S: s, Data: make([]float64, n*s)}
}

// MultiFromCols returns a multivector holding a copy of each column.
// All columns must share one length.
func MultiFromCols(cols [][]float64) *Multi {
	if len(cols) == 0 {
		return &Multi{}
	}
	n := len(cols[0])
	m := NewMulti(n, len(cols))
	for j, c := range cols {
		checkLen("MultiFromCols", len(c), n)
		copy(m.Col(j), c)
	}
	return m
}

// Col returns column j as a slice sharing the backing storage.
func (m *Multi) Col(j int) []float64 {
	return m.Data[j*m.N : (j+1)*m.N]
}

// Cols returns every column as a shared-storage slice.
func (m *Multi) Cols() [][]float64 {
	out := make([][]float64, m.S)
	for j := range out {
		out[j] = m.Col(j)
	}
	return out
}

// Prefix returns a view of the first s columns sharing the backing storage.
// The block CG solver deflates converged columns by swapping them past the
// active prefix and shrinking it, so every kernel call touches only live
// columns.
func (m *Multi) Prefix(s int) *Multi {
	if s < 0 || s > m.S {
		panic(fmt.Sprintf("vec: Prefix %d of %d columns", s, m.S))
	}
	return &Multi{N: m.N, S: s, Data: m.Data[:s*m.N]}
}

// SwapCols exchanges columns i and j element by element.
func (m *Multi) SwapCols(i, j int) {
	if i == j {
		return
	}
	ci, cj := m.Col(i), m.Col(j)
	for k := range ci {
		ci[k], cj[k] = cj[k], ci[k]
	}
}

// Zero sets every element to 0.
func (m *Multi) Zero() { Zero(m.Data) }

// CopyFrom copies src into m; the shapes must match.
func (m *Multi) CopyFrom(src *Multi) {
	m.checkShape("CopyFrom", src)
	copy(m.Data, src.Data)
}

// Clone returns a deep copy.
func (m *Multi) Clone() *Multi {
	return &Multi{N: m.N, S: m.S, Data: Clone(m.Data)}
}

func (m *Multi) checkShape(op string, o *Multi) {
	if m.N != o.N || m.S != o.S {
		panic(fmt.Sprintf("vec: %s shape mismatch: %d×%d vs %d×%d", op, m.N, m.S, o.N, o.S))
	}
}

func checkScalars(op string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("vec: %s needs %d per-column scalars, got %d", op, want, got))
	}
}

// MultiDot computes dst[j] = (x_j, y_j) for every column in one fused call.
// Per-column summation order matches Dot exactly, so a block CG recurrence
// built on MultiDot reproduces the single-vector recurrence bit for bit.
func MultiDot(x, y *Multi, dst []float64) {
	x.checkShape("MultiDot", y)
	checkScalars("MultiDot", len(dst), x.S)
	kernel.MultiDotCols(x.Data, y.Data, x.N, x.S, dst)
}

// MultiAxpy computes y_j += alphas[j] * x_j for every column.
func MultiAxpy(alphas []float64, x, y *Multi) {
	x.checkShape("MultiAxpy", y)
	checkScalars("MultiAxpy", len(alphas), x.S)
	for j := 0; j < x.S; j++ {
		Axpy(alphas[j], x.Col(j), y.Col(j))
	}
}

// MultiXpay computes y_j = x_j + betas[j] * y_j for every column — the
// block CG direction update p_j = r̂_j + β_j p_j.
func MultiXpay(x *Multi, betas []float64, y *Multi) {
	x.checkShape("MultiXpay", y)
	checkScalars("MultiXpay", len(betas), x.S)
	for j := 0; j < x.S; j++ {
		Xpay(x.Col(j), betas[j], y.Col(j))
	}
}

// MultiNorm2 computes dst[j] = ‖x_j‖₂ for every column.
func MultiNorm2(x *Multi, dst []float64) {
	checkScalars("MultiNorm2", len(dst), x.S)
	for j := 0; j < x.S; j++ {
		dst[j] = Norm2(x.Col(j))
	}
}

// MultiNormInf computes dst[j] = ‖x_j‖_∞ for every column.
func MultiNormInf(x *Multi, dst []float64) {
	checkScalars("MultiNormInf", len(dst), x.S)
	for j := 0; j < x.S; j++ {
		dst[j] = NormInf(x.Col(j))
	}
}

// ParMultiDot is MultiDot with each column's row range fanned out over up
// to `workers` goroutines via ParRange. Chunk partial sums combine in
// chunk-index order, so the result is deterministic for a fixed worker
// count; workers <= 1 takes the serial allocation-free path.
func ParMultiDot(x, y *Multi, workers int, dst []float64) {
	x.checkShape("ParMultiDot", y)
	checkScalars("ParMultiDot", len(dst), x.S)
	w := Workers(workers)
	if x.N < MinParallelLen || w <= 1 {
		MultiDot(x, y, dst)
		return
	}
	for j := 0; j < x.S; j++ {
		dst[j] = ParDot(x.Col(j), y.Col(j), workers)
	}
}

// ParMultiAxpy is MultiAxpy fanned out over row chunks: each goroutine
// updates its row range of every column, so the per-column arithmetic
// order is unchanged.
func ParMultiAxpy(alphas []float64, x, y *Multi, workers int) {
	x.checkShape("ParMultiAxpy", y)
	checkScalars("ParMultiAxpy", len(alphas), x.S)
	w := Workers(workers)
	if x.N < MinParallelLen || w <= 1 {
		MultiAxpy(alphas, x, y)
		return
	}
	n := x.N
	ParRange(n, workers, func(lo, hi int) {
		for j := 0; j < x.S; j++ {
			a, xc, yc := alphas[j], x.Col(j), y.Col(j)
			for i := lo; i < hi; i++ {
				yc[i] += a * xc[i]
			}
		}
	})
}

// ParMultiXpay is MultiXpay fanned out over row chunks.
func ParMultiXpay(x *Multi, betas []float64, y *Multi, workers int) {
	x.checkShape("ParMultiXpay", y)
	checkScalars("ParMultiXpay", len(betas), x.S)
	w := Workers(workers)
	if x.N < MinParallelLen || w <= 1 {
		MultiXpay(x, betas, y)
		return
	}
	n := x.N
	ParRange(n, workers, func(lo, hi int) {
		for j := 0; j < x.S; j++ {
			b, xc, yc := betas[j], x.Col(j), y.Col(j)
			for i := lo; i < hi; i++ {
				yc[i] = xc[i] + b*yc[i]
			}
		}
	})
}

// MultiMaxAbsDiff returns max_j ‖x_j − y_j‖_∞, the block form of the
// paper's convergence-test quantity.
func MultiMaxAbsDiff(x, y *Multi) float64 {
	x.checkShape("MultiMaxAbsDiff", y)
	var m float64
	for i, xi := range x.Data {
		if d := math.Abs(xi - y.Data[i]); d > m {
			m = d
		}
	}
	return m
}
