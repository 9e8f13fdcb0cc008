package kernel

// SweepArgs bundles the matrix-side inputs of the Conrad–Wallach m-step
// multicolor SSOR sweep: the CSR pattern/values, the color-group boundaries
// (group c spans rows [Start[c], Start[c+1])), the main diagonal, the
// diagonal's entry positions, and the m-step coefficients applied in
// reverse order (alphas[m-step]).
type SweepArgs struct {
	RowPtr []int
	ColIdx []int
	Val    []float64
	Start  []int
	Diag   []float64
	// DiagPos[i] is the index into ColIdx/Val of row i's diagonal entry.
	// In a multicolor ordering the diagonal is a row's only entry inside
	// its color group, so it splits the sorted row exactly: the forward
	// half-sweep's lower block sum runs over [RowPtr[i], DiagPos[i]) and
	// the backward half-sweep's upper block sum over (DiagPos[i],
	// RowPtr[i+1]). The splitting computes it once, when it verifies the
	// decoupling; callers never set it.
	DiagPos []int
	Alphas  []float64
}

// Impl is one complete kernel set. Every entry is allocation-free in steady
// state, and every per-column reduction accumulates in the portable order
// (see the package comment's numerical contract).
//
// Interleaved panels pass as raw slices: element (i, j) of an n-row, s-live-
// column panel with row stride st lives at data[i*st+j].
type Impl struct {
	// Name identifies the set in plans and benchmarks: "unrolled" (the set
	// every solve runs) or "portable" (the reference).
	Name string

	// Dot returns Σ x[i]·y[i] accumulated in index order.
	Dot func(x, y []float64) float64
	// Axpy computes y += a·x elementwise.
	Axpy func(a float64, x, y []float64)
	// Xpay computes y = x + a·y elementwise.
	Xpay func(x []float64, a float64, y []float64)
	// GatherDot32 returns Σ val[k]·x[idx[k]] in k order — the sparse-row
	// inner product of the decomposed backend's local sweeps (int32 local
	// column indices).
	GatherDot32 func(val []float64, idx []int32, x []float64) float64

	// Interleave converts a column-contiguous n×s block (column j at
	// src[j*n:(j+1)*n]) into an interleaved panel with row stride st.
	Interleave func(dst []float64, st int, src []float64, n, s int)
	// Deinterleave converts an interleaved panel back to column-contiguous
	// form.
	Deinterleave func(dst []float64, n, s int, src []float64, st int)

	// DotI computes dst[j] = Σ_i x[i·st+j]·y[i·st+j] for every live column
	// in one fused pass; per-column accumulation order matches Dot.
	DotI func(x, y []float64, st, n, s int, dst []float64)
	// AxpyI computes y_j += alphas[j]·x_j over interleaved panels.
	AxpyI func(alphas []float64, x, y []float64, st, n, s int)
	// XpayI computes y_j = x_j + betas[j]·y_j over interleaved panels.
	XpayI func(x []float64, betas []float64, y []float64, st, n, s int)
	// Norm2I computes dst[j] = ‖x_j‖₂ per live column, with the same
	// overflow-guarded scaling recurrence as vec.Norm2.
	Norm2I func(x []float64, st, n, s int, dst []float64)
	// NormInfI computes dst[j] = max_i |x[i·st+j]|.
	NormInfI func(x []float64, st, n, s int, dst []float64)

	// SpMMCSRI computes rows [lo, hi) of dst = A·X over interleaved panels:
	// one gathered row index feeds all s columns from adjacent memory.
	// Per-column accumulation order is the CSR entry order, matching
	// CSR.MulVecTo.
	SpMMCSRI func(rowptr, colidx []int, val []float64, x []float64, xs int, dst []float64, ds int, lo, hi, s int)
	// SpMMDIAI computes rows [lo, hi) of dst = A·X for diagonal storage over
	// interleaved panels: every stored diagonal is a contiguous triad on
	// both operands. Per-column order matches DIA.MulVecTo (ascending
	// stored-diagonal index).
	SpMMDIAI func(offsets []int, diags [][]float64, n int, x []float64, xs int, dst []float64, ds int, lo, hi, s int)
	// SweepCSRI runs the full m-step Conrad–Wallach multicolor sweep over
	// interleaved panels rhat, r with cache panel y (each n rows, stride
	// st, s live columns; rhat and y are zeroed on entry). Column j
	// reproduces the column-contiguous sweep on column j exactly.
	SweepCSRI func(a *SweepArgs, rhat, r, y []float64, st, n, s int)
}

// portableImpl is the reference set the agreement tests compare against;
// unrolledImpl (unrolled.go) is the set every solve runs.
var portableImpl = Impl{
	Name:         "portable",
	Dot:          portableDot,
	Axpy:         portableAxpy,
	Xpay:         portableXpay,
	GatherDot32:  portableGatherDot32,
	Interleave:   portableInterleave,
	Deinterleave: portableDeinterleave,
	DotI:         portableDotI,
	AxpyI:        portableAxpyI,
	XpayI:        portableXpayI,
	Norm2I:       norm2I,
	NormInfI:     normInfI,
	SpMMCSRI:     portableSpMMCSRI,
	SpMMDIAI:     portableSpMMDIAI,
	SweepCSRI:    portableSweepCSRI,
}

// Active returns the set every solve runs: the unrolled set, on every
// architecture.
func Active() *Impl { return &unrolledImpl }

// Portable returns the reference set: plain loops in the order every other
// set must reproduce bit for bit.
func Portable() *Impl { return &portableImpl }

// Select resolves a kernel set by the name a plan reports: "portable"
// returns the reference set, any other name the active one. Solves always
// run the active set; Select lets a benchmark map a plan back to its
// kernels.
func Select(name string) *Impl {
	if name == "portable" {
		return &portableImpl
	}
	return &unrolledImpl
}
