package vec

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
)

// IMulti is a row-interleaved multivector: the panel form of Multi, storing
// the S column values of each row adjacent so element (i, j) lives at
// Data[i*Stride+j]. One gathered CSR row index feeds all S columns from a
// single cache line (S = 8 float64s is exactly one 64-byte line), which is
// what the fused SpMM and sweep kernels in internal/kernel want; the price
// is that per-column views are strided, so the planner-tiled executor
// converts between the two layouts at tile boundaries and each is used where
// it wins.
//
// Stride is fixed at allocation; S may shrink below it as the block CG
// solver deflates converged columns past the active prefix (the interleaved
// analogue of Multi.Prefix), leaving rows Stride wide with only the first S
// entries live.
type IMulti struct {
	N, S, Stride int
	Data         []float64 // len N*Stride, element (i,j) at i*Stride+j
}

// NewIMulti returns a zeroed n×s interleaved panel with Stride = s.
func NewIMulti(n, s int) *IMulti {
	if n < 0 || s < 0 {
		panic(fmt.Sprintf("vec: NewIMulti dims %d×%d", n, s))
	}
	return &IMulti{N: n, S: s, Stride: s, Data: make([]float64, n*s)}
}

// SwapCols exchanges columns i and j element by element (a strided walk —
// the deflation swap on the interleaved form).
func (m *IMulti) SwapCols(i, j int) {
	if i == j {
		return
	}
	for base := 0; base < m.N*m.Stride; base += m.Stride {
		m.Data[base+i], m.Data[base+j] = m.Data[base+j], m.Data[base+i]
	}
}

// ScatterCol copies column j into the dense vector dst.
func (m *IMulti) ScatterCol(j int, dst []float64) {
	checkLen("IMulti.ScatterCol", len(dst), m.N)
	for i := range dst {
		dst[i] = m.Data[i*m.Stride+j]
	}
}

// GatherCol copies the dense vector src into column j.
func (m *IMulti) GatherCol(j int, src []float64) {
	checkLen("IMulti.GatherCol", len(src), m.N)
	for i, v := range src {
		m.Data[i*m.Stride+j] = v
	}
}

// Zero sets every element (live or not) to 0.
func (m *IMulti) Zero() { Zero(m.Data) }

// Interleaved returns a freshly allocated interleaved copy of m.
func (m *Multi) Interleaved() *IMulti {
	im := NewIMulti(m.N, m.S)
	im.InterleaveFrom(m, nil)
	return im
}

// InterleaveFrom fills m from the column-contiguous src — the tile-boundary
// conversion into panel form. impl selects the kernel set (nil means the
// active one). The shapes must match; allocation-free.
func (m *IMulti) InterleaveFrom(src *Multi, impl *kernel.Impl) {
	m.checkShapeMulti("InterleaveFrom", src)
	resolveImpl(impl).Interleave(m.Data, m.Stride, src.Data, m.N, m.S)
}

// DeinterleaveInto converts m back to the column-contiguous dst — the
// tile-boundary conversion out of panel form. Allocation-free.
func (m *IMulti) DeinterleaveInto(dst *Multi, impl *kernel.Impl) {
	m.checkShapeMulti("DeinterleaveInto", dst)
	resolveImpl(impl).Deinterleave(dst.Data, m.N, m.S, m.Data, m.Stride)
}

func (m *IMulti) checkShapeMulti(op string, o *Multi) {
	if m.N != o.N || m.S != o.S {
		panic(fmt.Sprintf("vec: %s shape mismatch: %d×%d vs %d×%d", op, m.N, m.S, o.N, o.S))
	}
}

func (m *IMulti) checkShape(op string, o *IMulti) {
	if m.N != o.N || m.S != o.S || m.Stride != o.Stride {
		panic(fmt.Sprintf("vec: %s shape mismatch: %d×%d/%d vs %d×%d/%d",
			op, m.N, m.S, m.Stride, o.N, o.S, o.Stride))
	}
}

// resolveImpl maps the nil kernel policy to the active set.
func resolveImpl(impl *kernel.Impl) *kernel.Impl {
	if impl == nil {
		return kernel.Active()
	}
	return impl
}

// IMultiDot computes dst[j] = (x_j, y_j) for every live column in one fused
// pass over the panels. Per-column summation order matches Dot exactly, so
// the interleaved block CG recurrence reproduces the column-contiguous one
// bit for bit.
func IMultiDot(x, y *IMulti, dst []float64, impl *kernel.Impl) {
	x.checkShape("IMultiDot", y)
	checkScalars("IMultiDot", len(dst), x.S)
	resolveImpl(impl).DotI(x.Data, y.Data, x.Stride, x.N, x.S, dst)
}

// IMultiAxpy computes y_j += alphas[j] * x_j for every live column.
func IMultiAxpy(alphas []float64, x, y *IMulti, impl *kernel.Impl) {
	x.checkShape("IMultiAxpy", y)
	checkScalars("IMultiAxpy", len(alphas), x.S)
	resolveImpl(impl).AxpyI(alphas, x.Data, y.Data, x.Stride, x.N, x.S)
}

// IMultiXpay computes y_j = x_j + betas[j] * y_j for every live column.
func IMultiXpay(x *IMulti, betas []float64, y *IMulti, impl *kernel.Impl) {
	x.checkShape("IMultiXpay", y)
	checkScalars("IMultiXpay", len(betas), x.S)
	resolveImpl(impl).XpayI(x.Data, betas, y.Data, x.Stride, x.N, x.S)
}

// IMultiNorm2 computes dst[j] = ‖x_j‖₂ for every live column, with the same
// overflow-guarded recurrence as Norm2.
func IMultiNorm2(x *IMulti, dst []float64, impl *kernel.Impl) {
	checkScalars("IMultiNorm2", len(dst), x.S)
	resolveImpl(impl).Norm2I(x.Data, x.Stride, x.N, x.S, dst)
}

// IMultiNormInf computes dst[j] = ‖x_j‖_∞ for every live column.
func IMultiNormInf(x *IMulti, dst []float64, impl *kernel.Impl) {
	checkScalars("IMultiNormInf", len(dst), x.S)
	resolveImpl(impl).NormInfI(x.Data, x.Stride, x.N, x.S, dst)
}

// ParIMultiDot is IMultiDot with the row range fanned out over up to
// `workers` goroutines. It uses the same row chunking as ParDot and combines
// per-chunk partial sums in chunk-index order, so for a fixed worker count
// it is bit-identical to ParMultiDot on the column-contiguous form.
func ParIMultiDot(x, y *IMulti, workers int, dst []float64, impl *kernel.Impl) {
	x.checkShape("ParIMultiDot", y)
	checkScalars("ParIMultiDot", len(dst), x.S)
	k := resolveImpl(impl)
	w := Workers(workers)
	if x.N < MinParallelLen || w <= 1 {
		k.DotI(x.Data, y.Data, x.Stride, x.N, x.S, dst)
		return
	}
	s, st := x.S, x.Stride
	cs := chunks(x.N, w)
	partial := make([]float64, len(cs)*s)
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci, lo, hi int) {
			defer wg.Done()
			k.DotI(x.Data[lo*st:], y.Data[lo*st:], st, hi-lo, s, partial[ci*s:(ci+1)*s])
		}(ci, c[0], c[1])
	}
	wg.Wait()
	for j := 0; j < s; j++ {
		dst[j] = 0
	}
	for ci := range cs {
		for j := 0; j < s; j++ {
			dst[j] += partial[ci*s+j]
		}
	}
}

// ParIMultiAxpy is IMultiAxpy fanned out over row chunks; elementwise, so
// the result is identical for any worker count.
func ParIMultiAxpy(alphas []float64, x, y *IMulti, workers int, impl *kernel.Impl) {
	x.checkShape("ParIMultiAxpy", y)
	checkScalars("ParIMultiAxpy", len(alphas), x.S)
	k := resolveImpl(impl)
	s, st := x.S, x.Stride
	if x.N < MinParallelLen || Workers(workers) <= 1 {
		k.AxpyI(alphas, x.Data, y.Data, st, x.N, s)
		return
	}
	ParRange(x.N, workers, func(lo, hi int) {
		k.AxpyI(alphas, x.Data[lo*st:], y.Data[lo*st:], st, hi-lo, s)
	})
}

// ParIMultiXpay is IMultiXpay fanned out over row chunks.
func ParIMultiXpay(x *IMulti, betas []float64, y *IMulti, workers int, impl *kernel.Impl) {
	x.checkShape("ParIMultiXpay", y)
	checkScalars("ParIMultiXpay", len(betas), x.S)
	k := resolveImpl(impl)
	s, st := x.S, x.Stride
	if x.N < MinParallelLen || Workers(workers) <= 1 {
		k.XpayI(x.Data, betas, y.Data, st, x.N, s)
		return
	}
	ParRange(x.N, workers, func(lo, hi int) {
		k.XpayI(x.Data[lo*st:], betas, y.Data[lo*st:], st, hi-lo, s)
	})
}
