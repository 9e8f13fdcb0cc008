package sparse

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/vec"
)

// CSR is a compressed-sparse-row matrix. Column indices within each row are
// strictly increasing (the invariant established by COO.ToCSR and preserved
// by every constructor in this package).
type CSR struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ
	Val        []float64
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// At returns element (i, j) by binary search within row i.
func (a *CSR) At(i, j int) float64 {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.ColIdx[mid] < j:
			lo = mid + 1
		case a.ColIdx[mid] > j:
			hi = mid
		default:
			return a.Val[mid]
		}
	}
	return 0
}

// MulVecTo computes dst = A·x. dst must not alias x.
func (a *CSR) MulVecTo(dst, x []float64) { a.ParMulVecTo(dst, x, 1) }

// ParMulVecTo computes dst = A·x with rows partitioned across up to
// `workers` goroutines, each running the serial body on a contiguous row
// block, so the result is bitwise identical to the serial product. workers
// == 1 is MulVecTo and allocates nothing (the allocation-free cg.SolveInto
// contract relies on this); workers <= 0 means GOMAXPROCS.
func (a *CSR) ParMulVecTo(dst, x []float64, workers int) {
	if len(x) != a.Cols || len(dst) != a.Rows {
		panic(fmt.Sprintf("sparse: MulVecTo dims: A %d×%d, x %d, dst %d", a.Rows, a.Cols, len(x), len(dst)))
	}
	if workers == 1 {
		a.mulVecRange(dst, x, 0, a.Rows)
		return
	}
	vec.ParRange(a.Rows, workers, func(lo, hi int) { a.mulVecRange(dst, x, lo, hi) })
}

// mulVecRange computes rows [lo, hi) of dst = A·x, the one body behind
// MulVecTo and ParMulVecTo. It takes the slices once and each row's values
// and columns once, so the entry loop bounds-checks only the gathered x.
func (a *CSR) mulVecRange(dst, x []float64, lo, hi int) {
	rowptr, col, val := a.RowPtr[:a.Rows+1], a.ColIdx, a.Val
	for i := lo; i < hi; i++ {
		vals, cols := val[rowptr[i]:rowptr[i+1]], col[rowptr[i]:rowptr[i+1]]
		cols = cols[:len(vals)]
		var s float64
		for k, v := range vals {
			s += v * x[cols[k]]
		}
		dst[i] = s
	}
}

// MulMatTo computes dst = A·X for a column-block multivector X: one pass
// over the matrix rows feeds all s columns, so row i's index/value block is
// loaded once (staying in cache across the s column products) instead of
// once per right-hand side — the SpMM form of the paper's
// amortize-startup-over-longer-work argument. Per-column arithmetic order
// matches MulVecTo exactly. dst must not alias x.
func (a *CSR) MulMatTo(dst, x *vec.Multi) {
	if x.N != a.Cols || dst.N != a.Rows || dst.S != x.S {
		panic(fmt.Sprintf("sparse: MulMatTo dims: A %d×%d, x %d×%d, dst %d×%d",
			a.Rows, a.Cols, x.N, x.S, dst.N, dst.S))
	}
	a.mulMatRange(dst, x, 0, a.Rows)
}

// mulMatRange runs the SpMM over the row range [lo, hi) via the fused
// column-tiled kernel (kernel.SpMMCSRCols): each row's entry list is scanned
// once per column tile (not once per column), with the tile's partial sums
// accumulating in registers; per-column summation order still matches
// MulVecTo exactly.
func (a *CSR) mulMatRange(dst, x *vec.Multi, lo, hi int) {
	kernel.SpMMCSRCols(a.RowPtr, a.ColIdx, a.Val, x.Data, a.Cols, dst.Data, dst.N, lo, hi, x.S)
}

// ParMulMatTo is MulMatTo with rows partitioned across up to `workers`
// goroutines via vec.ParRange; each goroutine owns a contiguous row block
// of every column, so the result is bitwise identical to the serial
// product. workers == 1 takes the serial allocation-free path.
func (a *CSR) ParMulMatTo(dst, x *vec.Multi, workers int) {
	if workers == 1 {
		a.MulMatTo(dst, x)
		return
	}
	if x.N != a.Cols || dst.N != a.Rows || dst.S != x.S {
		panic(fmt.Sprintf("sparse: ParMulMatTo dims: A %d×%d, x %d×%d, dst %d×%d",
			a.Rows, a.Cols, x.N, x.S, dst.N, dst.S))
	}
	vec.ParRange(a.Rows, workers, func(lo, hi int) {
		a.mulMatRange(dst, x, lo, hi)
	})
}

// Diag returns the main diagonal as a dense vector (zeros where absent).
func (a *CSR) Diag() []float64 {
	n := min(a.Rows, a.Cols)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = a.At(i, i)
	}
	return d
}

// IsSymmetric reports whether A equals Aᵀ within tol relative to the largest
// entry magnitude. Requires a square matrix.
func (a *CSR) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	var maxAbs float64
	for _, v := range a.Val {
		if ab := math.Abs(v); ab > maxAbs {
			maxAbs = ab
		}
	}
	if maxAbs == 0 {
		return true
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if math.Abs(a.Val[k]-a.At(j, i)) > tol*maxAbs {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy.
func (a *CSR) Clone() *CSR {
	return &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int{}, a.RowPtr...),
		ColIdx: append([]int{}, a.ColIdx...),
		Val:    append([]float64{}, a.Val...),
	}
}

// MaxRowNNZ returns the maximum number of stored entries in any row — the
// paper's "at most 14 nonzero elements" claim is checked against this.
func (a *CSR) MaxRowNNZ() int {
	m := 0
	for i := 0; i < a.Rows; i++ {
		if n := a.RowPtr[i+1] - a.RowPtr[i]; n > m {
			m = n
		}
	}
	return m
}

// Dense returns the dense row-major expansion; intended for tests on tiny
// matrices only.
func (a *CSR) Dense() [][]float64 {
	out := make([][]float64, a.Rows)
	for i := range out {
		out[i] = make([]float64, a.Cols)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			out[i][a.ColIdx[k]] = a.Val[k]
		}
	}
	return out
}
