package kernel

import "os"

// EnvVar is the environment variable that forces a kernel set at startup:
// REPRO_KERNEL=portable selects the portable reference implementations
// process-wide regardless of detected CPU features.
const EnvVar = "REPRO_KERNEL"

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
	// Name identifies the set in plans, stats and logs: "portable", "avx2"
	// (amd64 with AVX2+FMA) or "neon" (arm64).
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

// portableImpl is the reference set; acceleratedImpl is built by the
// per-arch detect() (nil when the CPU has no accelerated set).
var (
	portableImpl = Impl{
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
	acceleratedImpl *Impl
	activeImpl      *Impl
)

func init() {
	acceleratedImpl = detect()
	activeImpl = &portableImpl
	if acceleratedImpl != nil {
		activeImpl = acceleratedImpl
	}
	if os.Getenv(EnvVar) == "portable" {
		activeImpl = &portableImpl
	}
}

// Active returns the kernel set selected at startup: the accelerated set
// when CPU feature detection found one (and REPRO_KERNEL did not override),
// the portable set otherwise.
func Active() *Impl { return activeImpl }

// Portable returns the reference set. It is always available — the fallback
// every CPU can run — and is what REPRO_KERNEL=portable selects.
func Portable() *Impl { return &portableImpl }

// Accelerated returns the CPU-specific set, or nil when the host has none
// (amd64 without AVX2+FMA, or an architecture without a tuned variant).
func Accelerated() *Impl { return acceleratedImpl }

// Select resolves a kernel set by the name a plan reports: "portable"
// returns the reference set, any other name the startup-selected one.
// Solves always run the startup set (REPRO_KERNEL=portable makes that the
// reference set); Select lets a benchmark map a plan back to its kernels.
func Select(name string) *Impl {
	if name == "portable" {
		return &portableImpl
	}
	return activeImpl
}
