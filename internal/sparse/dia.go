package sparse

import (
	"fmt"
	"sort"

	"repro/internal/vec"
)

// DIA stores a square matrix by diagonals — the layout Madsen, Rodrigue and
// Karush (1976) proposed for vector processors and the one the paper uses
// on the CYBER 203/205 (§3.1): after the multicolor ordering, K has the
// banded block structure of eq. (3.2) and the matrix–vector product becomes
// a handful of long vector triads, one per stored diagonal.
//
// Diagonal with offset d holds elements A[i, i+d]. Each diagonal is stored
// in a slice of length N indexed by row i; positions outside the matrix are
// zero padding. That wastes a little memory but keeps every vector operand
// the same length, which is precisely the contiguous-storage behaviour of
// the CYBER that the paper designs around.
type DIA struct {
	N       int
	Offsets []int       // sorted ascending
	Diags   [][]float64 // Diags[k][i] = A[i, i+Offsets[k]]
}

// NewDIAFromCSR converts a square CSR matrix to diagonal storage. Every
// distinct offset that contains a nonzero becomes a stored diagonal. A
// non-square matrix is an error, not a panic: the conversion is reachable
// from service request bodies, and a malformed request must fail the
// request, never the daemon.
func NewDIAFromCSR(a *CSR) (*DIA, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: DIA needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			seen[a.ColIdx[k]-i] = true
		}
	}
	offsets := make([]int, 0, len(seen))
	for d := range seen {
		offsets = append(offsets, d)
	}
	sort.Ints(offsets)
	idx := make(map[int]int, len(offsets))
	for k, d := range offsets {
		idx[d] = k
	}
	diags := make([][]float64, len(offsets))
	for k := range diags {
		diags[k] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d := a.ColIdx[k] - i
			diags[idx[d]][i] = a.Val[k]
		}
	}
	return &DIA{N: n, Offsets: offsets, Diags: diags}, nil
}

// MustDIAFromCSR is NewDIAFromCSR for matrices known square by
// construction; it panics on the error a caller cannot meaningfully handle.
func MustDIAFromCSR(a *CSR) *DIA {
	d, err := NewDIAFromCSR(a)
	if err != nil {
		panic(err)
	}
	return d
}

// NumDiags returns the number of stored diagonals.
func (a *DIA) NumDiags() int { return len(a.Offsets) }

// MulVecTo computes dst = A·x one diagonal at a time. Each diagonal d
// contributes dst[i] += Diag[i] * x[i+d] over the valid range — on the
// CYBER this is a single linked-triad vector instruction of length
// N − |d|; the vectorsim package charges time accordingly.
func (a *DIA) MulVecTo(dst, x []float64) { a.ParMulVecTo(dst, x, 1) }

// ParMulVecTo computes dst = A·x with rows partitioned across up to
// `workers` goroutines via vec.ParRange, each running the serial body on a
// contiguous row block, so the result is bitwise identical to the serial
// product; workers == 1 is MulVecTo and allocates nothing.
func (a *DIA) ParMulVecTo(dst, x []float64, workers int) {
	if len(x) != a.N || len(dst) != a.N {
		panic(fmt.Sprintf("sparse: DIA.MulVecTo dims: N=%d, x %d, dst %d", a.N, len(x), len(dst)))
	}
	if workers == 1 {
		a.mulVecRange(dst, x, 0, a.N)
		return
	}
	vec.ParRange(a.N, workers, func(lo, hi int) { a.mulVecRange(dst, x, lo, hi) })
}

// mulVecRange computes rows [lo, hi) of dst = A·x, the one body behind
// MulVecTo and ParMulVecTo.
func (a *DIA) mulVecRange(dst, x []float64, lo, hi int) {
	clear(dst[lo:hi])
	for k := range a.Offsets {
		a.triad(dst, x, k, lo, hi)
	}
}

// MulMatTo computes dst = A·X for a column-block multivector X: every
// stored diagonal is traversed once and its triad applied to all s columns
// — the matrix–multivector form of the Madsen–Rodrigue–Karush layout, with
// the vector operands s times longer in aggregate. Per-column arithmetic
// order matches MulVecTo exactly. dst must not alias x.
func (a *DIA) MulMatTo(dst, x *vec.Multi) {
	if x.N != a.N || dst.N != a.N || dst.S != x.S {
		panic(fmt.Sprintf("sparse: DIA.MulMatTo dims: N=%d, x %d×%d, dst %d×%d",
			a.N, x.N, x.S, dst.N, dst.S))
	}
	a.mulMatRange(dst, x, 0, a.N)
}

// mulMatRange runs the block product over the row range [lo, hi).
func (a *DIA) mulMatRange(dst, x *vec.Multi, lo, hi int) {
	for j := 0; j < dst.S; j++ {
		clear(dst.Col(j)[lo:hi])
	}
	for k := range a.Offsets {
		for j := 0; j < x.S; j++ {
			a.triad(dst.Col(j), x.Col(j), k, lo, hi)
		}
	}
}

// triad adds diagonal k's share of rows [lo, hi) of A·x to dst, over the
// rows the diagonal covers there; it skips a diagonal that covers none,
// whose reslice would panic.
func (a *DIA) triad(dst, x []float64, k, lo, hi int) {
	d := a.Offsets[k]
	l, h := diagRange(a.N, d)
	l, h = max(l, lo), min(h, hi)
	if l >= h {
		return
	}
	dst = dst[l:h]
	diag, x := a.Diags[k][l:h], x[l+d:h+d]
	diag, x = diag[:len(dst)], x[:len(dst)]
	for i, v := range diag {
		dst[i] += v * x[i]
	}
}

// ParMulMatTo is MulMatTo with rows partitioned across up to `workers`
// goroutines; bitwise identical to the serial product, and serial (and
// allocation-free) at workers == 1.
func (a *DIA) ParMulMatTo(dst, x *vec.Multi, workers int) {
	if workers == 1 {
		a.MulMatTo(dst, x)
		return
	}
	if x.N != a.N || dst.N != a.N || dst.S != x.S {
		panic(fmt.Sprintf("sparse: DIA.ParMulMatTo dims: N=%d, x %d×%d, dst %d×%d",
			a.N, x.N, x.S, dst.N, dst.S))
	}
	vec.ParRange(a.N, workers, func(lo, hi int) {
		a.mulMatRange(dst, x, lo, hi)
	})
}

// OpLengths returns the vector length of the triad performed for each
// stored diagonal — the quantity that determines CYBER efficiency.
func (a *DIA) OpLengths() []int {
	out := make([]int, len(a.Offsets))
	for k, d := range a.Offsets {
		lo, hi := diagRange(a.N, d)
		out[k] = hi - lo
	}
	return out
}

// ToCSR converts back to CSR (dropping explicit zeros).
func (a *DIA) ToCSR() *CSR {
	c := NewCOO(a.N, a.N)
	for k, d := range a.Offsets {
		lo, hi := diagRange(a.N, d)
		for i := lo; i < hi; i++ {
			if v := a.Diags[k][i]; v != 0 {
				c.Add(i, i+d, v)
			}
		}
	}
	return c.ToCSR()
}

// diagRange returns the half-open row range [lo, hi) over which diagonal d
// lies inside an n×n matrix.
func diagRange(n, d int) (lo, hi int) {
	lo = max(-d, 0)
	hi = max(min(n, n-d), lo)
	return lo, hi
}
