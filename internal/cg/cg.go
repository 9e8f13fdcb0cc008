// Package cg implements the preconditioned conjugate gradient method,
// Algorithm 1 of the paper, for sparse symmetric positive definite systems.
// The recurrence is written once, as a block solve: s right-hand sides
// sharing one matrix and one preconditioner advance in lockstep, and a
// scalar solve is its one-column case. The working block lives in one of
// two layouts, column-contiguous vectors or row-interleaved panels; every
// kernel preserves per-column arithmetic order, so a column's iterates are
// the same bits in either layout and at any batch width. A third layout
// is the caller's (SolveLayout): internal/decomp runs each subdomain's rank
// of a distributed solve through the same recurrence. The default
// stopping test is the paper's ‖u^{k+1} − u^k‖_∞ < ε; a relative-residual
// test is available as an alternative or supplement.
package cg

import (
	"context"
	"errors"
	"math"
	"slices"

	"repro/internal/precond"
	"repro/internal/vec"
)

// ErrBreakdownMatrix signals (p, Kp) ≤ 0: the system matrix is not positive
// definite on the Krylov space.
var ErrBreakdownMatrix = errors.New("cg: breakdown — system matrix not positive definite")

// ErrBreakdownPrecond signals (r̂, r) ≤ 0 away from convergence: the
// preconditioner is indefinite (the paper's §2 positivity requirement on
// the eigenvalues of M_m⁻¹K is violated).
var ErrBreakdownPrecond = errors.New("cg: breakdown — preconditioner not positive definite")

// Operator is what a solve needs of the system matrix K: its shape and its
// products with a vector and with a column block, each with a worker budget
// (≤ 1 is serial). sparse.Operator backends (CSR, DIA) satisfy it, and so
// does any symmetric linear map that can apply itself, such as the
// symmetrized preconditioned operator internal/eigen runs its spectral
// estimate on.
type Operator interface {
	// Dims returns the matrix shape.
	Dims() (rows, cols int)
	// ParMulVecTo computes dst = K·x. dst must not alias x.
	ParMulVecTo(dst, x []float64, workers int)
	// ParMulMatTo computes dst = K·X for a column block X.
	ParMulMatTo(dst, x *vec.Multi, workers int)
}

// ErrMaxIterations signals the iteration limit was hit before either
// stopping test fired.
var ErrMaxIterations = errors.New("cg: maximum iterations reached without convergence")

// Options configure a solve. Every option applies to every column of a
// block solve, and so to scalar solves as its one-column case.
type Options struct {
	// Tol is ε in the paper's test ‖u^{k+1}−u^k‖_∞ < ε. Set ≤ 0 to disable.
	Tol float64
	// RelResidualTol stops when ‖r‖₂/‖f‖₂ drops below it. Set ≤ 0 to
	// disable. At least one of the two tests must be enabled.
	RelResidualTol float64
	// MaxIter bounds the iteration count (default 10·n).
	MaxIter int
	// History records each column's per-iteration ‖u diff‖_∞ and ‖r‖₂/‖f‖₂
	// when true.
	History bool
	// VerifyResidual recomputes each column's true residual
	// ‖f − K·u‖₂/‖f‖₂ as the column finishes and stores it in
	// Stats.TrueRelRes (one extra matrix–vector product per column); it
	// guards against recurrence drift on long runs.
	VerifyResidual bool
	// Workers caps the goroutine fan-out of the SpMV/dot/axpy kernels.
	// ≤ 1 keeps every kernel serial (the default). The solver service sets
	// this to a per-job budget so p concurrent jobs × w workers never
	// oversubscribe GOMAXPROCS.
	Workers int
	// Ctx, when non-nil, is polled once per iteration: after it is
	// canceled the solve stops at the next iteration boundary and reports
	// the context's error (the partial iterate is still returned). This is
	// how the solver service propagates a disconnected client into a
	// long-running solve instead of leaking it.
	Ctx context.Context
	// OnColumnDone, when non-nil, is invoked the moment a column leaves the
	// active set — converged, broken down, canceled, or out of iterations —
	// with the column's right-hand-side index and its final statistics. It
	// fires from the solving goroutine while the remaining columns keep
	// iterating, so early-converging columns surface before the block
	// finishes; the column's slice of the iterate block is final and safe
	// to read inside the callback. Every column fires exactly once per
	// solve.
	OnColumnDone func(col int, stats ColumnStats)
	// StopWhen, when non-nil, is an extra per-column stopping test. It is
	// called each iteration, after the built-in tests, for every active
	// column they did not stop, with the column's right-hand-side index and
	// its statistics so far (their CGAlphas and CGBetas alias the
	// workspace: read them, do not keep them). Returning true retires the
	// column as converged, and OnColumnDone fires for it as for any
	// retirement. It must not allocate if the solve is to stay
	// allocation-free.
	StopWhen func(col int, stats Stats) bool
	// Observer, when non-nil, receives one convergence sample per active
	// column per iteration from the solve hot loop. It is the telemetry tap
	// convergence curves are captured through; implementations must not
	// allocate or block (the steady-state solve path stays allocation-free
	// with an Observer attached — see the AllocsPerRun guards).
	Observer Observer
	// Interleave requests the row-interleaved panel layout: the right-hand
	// sides are interleaved once at entry, iterated on with the fused panel
	// kernels, and each column's iterate is de-interleaved once, as it
	// finishes. It is honored only when both the operator and the
	// preconditioner can serve panels (sparse.InterleavedOperator and
	// precond.CanApplyInterleaved); otherwise the column-contiguous layout
	// runs and BlockStats.Interleaved reports false. Column iterates are
	// bit-identical either way. Both layouts run the one kernel set
	// (kernel.Active).
	Interleave bool
}

// Observer receives per-iteration convergence telemetry. col is the
// right-hand-side index (0 for scalar solves), iter the 1-based iteration
// count for that column, udiff the paper's stopping quantity
// ‖u^{k+1}−u^k‖_∞ and relres the relative residual ‖r‖₂/‖f‖₂.
// obs.ConvergenceLog is the standard implementation; the interface lives
// here so the solver kernels depend on nothing above them.
type Observer interface {
	ObserveIteration(col, iter int, udiff, relres float64)
}

// Stats reports what a solve did for one right-hand side.
type Stats struct {
	Iterations    int
	Converged     bool
	FinalUDiff    float64 // last ‖u^{k+1}−u^k‖_∞
	FinalRelRes   float64 // last ‖r‖₂/‖f‖₂
	InnerProducts int     // number of (·,·) evaluations, the paper's bottleneck metric
	PrecondApps   int
	// MatVecs counts products with K: one per iteration (the start u⁰ = 0
	// needs none), plus one for VerifyResidual.
	MatVecs int

	// CGAlphas and CGBetas are the recurrence coefficients; the Lanczos
	// tridiagonal matrix assembled from them drives the eigenvalue
	// estimates in internal/eigen.
	CGAlphas, CGBetas []float64

	// UDiffHistory and ResidualHistory are filled when Options.History.
	UDiffHistory    []float64
	ResidualHistory []float64

	// TrueRelRes is the recomputed ‖f − K·u‖₂/‖f‖₂ when
	// Options.VerifyResidual is set (−1 otherwise).
	TrueRelRes float64
}

// detached returns a copy of st that shares no recording with the solve
// that produced it, so a later solve on the same workspace cannot rewrite
// it.
func (st Stats) detached() Stats {
	st.CGAlphas = slices.Clone(st.CGAlphas)
	st.CGBetas = slices.Clone(st.CGBetas)
	st.UDiffHistory = slices.Clone(st.UDiffHistory)
	st.ResidualHistory = slices.Clone(st.ResidualHistory)
	return st
}

// Solve runs preconditioned CG on K·u = f with preconditioner M. K is any
// Operator (CSR, DIA, …); the solver only ever applies it.
// It returns the iterate, statistics, and an error for breakdowns or
// hitting MaxIter (the partial result is still returned). Each call
// allocates its scratch; allocation-sensitive callers use SolveInto with a
// reused Workspace.
func Solve(k Operator, f []float64, m precond.Preconditioner, opt Options) ([]float64, Stats, error) {
	rows, _ := k.Dims()
	u := make([]float64, rows)
	st, err := SolveInto(u, k, f, m, opt, nil)
	return u, st, err
}

// LanczosTridiagonal reconstructs the Lanczos tridiagonal matrix T from the
// CG coefficients: T has diagonal d_k = 1/α_k + β_{k−1}/α_{k−1} (β_{−1}=0)
// and off-diagonal e_k = √β_k / α_k. Its eigenvalues approximate the
// extreme eigenvalues of M⁻¹K, giving the condition numbers reported by
// the experiments.
func LanczosTridiagonal(st Stats) (diag, offdiag []float64) {
	na := len(st.CGAlphas)
	if na == 0 {
		return nil, nil
	}
	diag = make([]float64, na)
	offdiag = make([]float64, 0, na-1)
	for k := 0; k < na; k++ {
		diag[k] = 1 / st.CGAlphas[k]
		if k > 0 {
			diag[k] += st.CGBetas[k-1] / st.CGAlphas[k-1]
		}
		if k < len(st.CGBetas) && k+1 < na {
			offdiag = append(offdiag, math.Sqrt(st.CGBetas[k])/st.CGAlphas[k])
		}
	}
	return diag, offdiag
}
