package sparse

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/vec"
)

// InterleavedOperator is the optional fast path of Operator: a backend that
// can also apply itself to a row-interleaved panel (vec.IMulti), where one
// gathered row index feeds all live columns from adjacent memory. The
// solvers type-assert for it — a backend without it simply keeps the
// column-contiguous block product — so adding the capability never breaks
// the Operator contract.
//
// impl selects the kernel set for the product (nil means the active set);
// the same Par contract as Operator applies: workers == 1 is serial and
// allocation-free, and every parallel product is bitwise identical to its
// serial form.
type InterleavedOperator interface {
	Operator
	// MulMatITo computes dst = A·X over interleaved panels.
	MulMatITo(dst, x *vec.IMulti, impl *kernel.Impl)
	// ParMulMatITo is MulMatITo with rows partitioned across up to workers
	// goroutines.
	ParMulMatITo(dst, x *vec.IMulti, workers int, impl *kernel.Impl)
}

var (
	_ InterleavedOperator = (*CSR)(nil)
	_ InterleavedOperator = (*DIA)(nil)
)

func checkIDims(op string, rows, cols int, dst, x *vec.IMulti) {
	if x.N != cols || dst.N != rows || dst.S != x.S {
		panic(fmt.Sprintf("sparse: %s dims: A %d×%d, x %d×%d, dst %d×%d",
			op, rows, cols, x.N, x.S, dst.N, dst.S))
	}
}

// MulMatITo computes dst = A·X for row-interleaved panels: each gathered
// row index feeds all live columns from one cache line. Per-column
// arithmetic order matches MulVecTo (and MulMatTo) exactly. dst must not
// alias x.
func (a *CSR) MulMatITo(dst, x *vec.IMulti, impl *kernel.Impl) {
	checkIDims("MulMatITo", a.Rows, a.Cols, dst, x)
	if impl == nil {
		impl = kernel.Active()
	}
	impl.SpMMCSRI(a.RowPtr, a.ColIdx, a.Val, x.Data, x.Stride, dst.Data, dst.Stride, 0, a.Rows, x.S)
}

// ParMulMatITo is MulMatITo with rows partitioned across up to `workers`
// goroutines via vec.ParRange; each goroutine owns a contiguous row block of
// the panel, so the result is bitwise identical to the serial product.
// workers == 1 takes the serial allocation-free path.
func (a *CSR) ParMulMatITo(dst, x *vec.IMulti, workers int, impl *kernel.Impl) {
	if impl == nil {
		impl = kernel.Active()
	}
	if workers == 1 {
		a.MulMatITo(dst, x, impl)
		return
	}
	checkIDims("ParMulMatITo", a.Rows, a.Cols, dst, x)
	vec.ParRange(a.Rows, workers, func(lo, hi int) {
		impl.SpMMCSRI(a.RowPtr, a.ColIdx, a.Val, x.Data, x.Stride, dst.Data, dst.Stride, lo, hi, x.S)
	})
}

// MulMatITo computes dst = A·X for row-interleaved panels, one stored
// diagonal at a time; every triad touches contiguous panel rows on both
// operands. Per-column arithmetic order matches MulVecTo exactly. dst must
// not alias x.
func (a *DIA) MulMatITo(dst, x *vec.IMulti, impl *kernel.Impl) {
	checkIDims("DIA.MulMatITo", a.N, a.N, dst, x)
	if impl == nil {
		impl = kernel.Active()
	}
	impl.SpMMDIAI(a.Offsets, a.Diags, a.N, x.Data, x.Stride, dst.Data, dst.Stride, 0, a.N, x.S)
}

// ParMulMatITo is DIA.MulMatITo with rows partitioned across up to `workers`
// goroutines; bitwise identical to the serial product, and serial (and
// allocation-free) at workers == 1.
func (a *DIA) ParMulMatITo(dst, x *vec.IMulti, workers int, impl *kernel.Impl) {
	if impl == nil {
		impl = kernel.Active()
	}
	if workers == 1 {
		a.MulMatITo(dst, x, impl)
		return
	}
	checkIDims("DIA.ParMulMatITo", a.N, a.N, dst, x)
	vec.ParRange(a.N, workers, func(lo, hi int) {
		impl.SpMMDIAI(a.Offsets, a.Diags, a.N, x.Data, x.Stride, dst.Data, dst.Stride, lo, hi, x.S)
	})
}
