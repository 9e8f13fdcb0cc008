// Package core composes the paper's pieces — a splitting, polynomial
// coefficients, and preconditioned conjugate gradient — into the m-step
// PCG solver that is the paper's contribution. It owns the policy decisions
// (which splitting, which coefficient criterion, which spectral interval)
// and delegates the mechanics to internal/splitting, internal/poly,
// internal/precond, internal/cg and internal/eigen.
package core

import (
	"fmt"

	"repro/internal/cg"
	"repro/internal/eigen"
	"repro/internal/fem"
	"repro/internal/kernel"
	"repro/internal/plan"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
)

// SplittingKind selects the stationary method generating the
// preconditioner.
type SplittingKind int

const (
	// SSORMulticolor is the paper's method: the 6-color SSOR splitting
	// with fused Conrad–Wallach sweeps. Requires GroupStart on the system.
	SSORMulticolor SplittingKind = iota
	// SSORNatural is SSOR(ω) in the stored ordering.
	SSORNatural
	// JacobiSplitting yields the truncated Neumann-series preconditioner.
	JacobiSplitting
)

func (s SplittingKind) String() string {
	switch s {
	case SSORMulticolor:
		return "ssor-multicolor"
	case SSORNatural:
		return "ssor-natural"
	case JacobiSplitting:
		return "jacobi"
	}
	return "?"
}

// CoeffKind selects the parametrization of §2.2.
type CoeffKind int

const (
	// Unparametrized uses αᵢ = 1: plain m steps of the stationary method.
	Unparametrized CoeffKind = iota
	// LeastSquaresCoeffs uses the continuous least-squares fit the paper's
	// Table 1 reports.
	LeastSquaresCoeffs
	// ChebyshevCoeffs uses the min-max (Chebyshev) criterion.
	ChebyshevCoeffs
	// WeightedLSCoeffs uses least squares with weight w(λ) = λ
	// (Johnson–Micchelli–Paul's μ = 1 weight: energy-norm emphasis).
	WeightedLSCoeffs
)

func (c CoeffKind) String() string {
	switch c {
	case Unparametrized:
		return "ones"
	case LeastSquaresCoeffs:
		return "least-squares"
	case ChebyshevCoeffs:
		return "chebyshev"
	case WeightedLSCoeffs:
		return "least-squares(w=λ)"
	}
	return "?"
}

// System is a symmetric positive definite linear system K·u = F.
// GroupStart carries the multicolor group boundaries when K is in a
// multicolor ordering (required by SSORMulticolor, ignored otherwise).
type System struct {
	K          *sparse.CSR
	F          []float64
	GroupStart []int
}

// Config selects the solver variant.
type Config struct {
	// M is the number of preconditioner steps; 0 runs plain CG.
	M int
	// Splitting picks the stationary method (default SSORMulticolor).
	Splitting SplittingKind
	// Coeffs picks the parametrization (default Unparametrized).
	Coeffs CoeffKind
	// Omega is the SSORNatural relaxation parameter; the paper uses 1 and
	// notes multicolor SSOR with few colors wants ω = 1 (Adams 1983).
	Omega float64
	// Interval optionally pins [λ₁, λₙ] for parametrized coefficients;
	// when nil it is estimated from a short Lanczos run on the splitting's
	// symmetrized operator (eigen.EstimateInterval).
	Interval *eigen.Interval
	// Tol is the paper's ‖u^{k+1}−u^k‖_∞ test (default 1e-6 when both
	// tolerances are unset).
	Tol float64
	// RelResidualTol optionally adds/substitutes a relative residual test.
	RelResidualTol float64
	// MaxIter bounds iterations (default 10n).
	MaxIter int
	// History records per-iteration convergence data.
	History bool
	// Seed drives the deterministic interval estimation (default 1).
	Seed int64
	// Workers caps the goroutine fan-out of the CG kernels (≤ 1 serial);
	// see cg.Options.Workers.
	Workers int
	// Backend selects the matvec storage for K (the preconditioner always
	// works from the CSR form). The zero value is BackendAuto: probe the
	// structure and pick DIA for banded-diagonal systems, CSR otherwise.
	Backend Backend
	// Kernel selects the kernel set the fused solver loops run through:
	// "" or "auto" uses the set CPU feature detection picked at startup,
	// "portable" forces the reference implementations (the same override
	// REPRO_KERNEL=portable applies process-wide). Any other value is
	// rejected. Column iterates are bit-identical across kernel sets.
	Kernel string
	// Subdomains pins the processor count of a decomposed solve (0 = the
	// planner picks from the worker budget and mesh shape). Only
	// meaningful for mesh-backed problems routed through the engine.
	Subdomains int
	// Tuning is the self-tuning planner's feedback policy: "" or "adapt"
	// lets warm engine sessions re-plan from measured throughput,
	// "observe" records evidence without adapting, "off" pins the static
	// plan bit-for-bit. Any other value is rejected. The one-shot Solve
	// path has no observation store, so the knob only gates validation
	// there; the engine is where it takes effect. Deliberately
	// excluded from the engine's problem cache key — it is an execution
	// policy, not part of the prepared problem.
	Tuning string
}

// Result reports a solve.
type Result struct {
	U        []float64
	Stats    cg.Stats
	Precond  string
	Alphas   poly.Alphas    // zero-value when M == 0
	Interval eigen.Interval // zero-value when no estimate was needed
	// Backend is the matvec storage the solve actually ran on ("csr" or
	// "dia") — the resolved form of Config.Backend.
	Backend string
	// Kernel is the kernel set the solve's fused loops ran through
	// ("portable", "avx2", "neon") — the resolved form of Config.Kernel.
	Kernel string
}

// BuildSplitting constructs the configured splitting for a system.
// Omega = 0 means "unset" and defaults to the paper's ω = 1; any other
// value outside (0, 2) is rejected here, for every splitting kind, because
// SSOR with such an ω is not a convergent splitting and the resulting
// preconditioner silently diverges.
func BuildSplitting(sys System, cfg Config) (splitting.Splitting, error) {
	omega := cfg.Omega
	if omega == 0 {
		omega = 1
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("core: relaxation parameter ω = %g outside (0, 2) — SSOR would diverge (set Omega to 0 for the default ω = 1)", cfg.Omega)
	}
	switch cfg.Splitting {
	case SSORMulticolor:
		if sys.GroupStart == nil {
			return nil, fmt.Errorf("core: multicolor SSOR needs GroupStart (a multicolor-ordered system)")
		}
		return splitting.NewMulticolorSSOR(sys.K, sys.GroupStart, omega)
	case SSORNatural:
		return splitting.NewNaturalSSOR(sys.K, omega)
	case JacobiSplitting:
		return splitting.NewJacobi(sys.K)
	default:
		return nil, fmt.Errorf("core: unknown splitting kind %d", cfg.Splitting)
	}
}

// intervalPad widens the estimated spectral interval outward by 2% on both
// ends, covering the gap between the extreme Ritz values and the extreme
// eigenvalues of P⁻¹K.
const intervalPad = 0.02

// IntervalSeed returns the seed the spectral estimate runs with: Seed, or
// 1 when unset.
func (c Config) IntervalSeed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// IntervalFor returns the spectral interval the configuration's
// parametrized coefficients run on: the pinned cfg.Interval when set, an
// estimate from a short Lanczos run on the splitting otherwise. It is the
// expensive half of coefficient construction, split out so instrumented
// callers can time spectral estimation as its own stage. Every caller that
// needs an interval goes through here, so the pad and seed are defined
// once.
func IntervalFor(sp splitting.Splitting, cfg Config) (eigen.Interval, error) {
	if cfg.Interval != nil {
		return *cfg.Interval, nil
	}
	return eigen.EstimateInterval(sp, intervalPad, cfg.IntervalSeed())
}

// BuildCoefficients computes the α for the configured criterion, estimating
// the spectral interval when necessary.
func BuildCoefficients(sp splitting.Splitting, cfg Config) (poly.Alphas, eigen.Interval, error) {
	if cfg.M < 1 {
		return poly.Alphas{}, eigen.Interval{}, fmt.Errorf("core: coefficients need M >= 1, got %d", cfg.M)
	}
	if cfg.Coeffs == Unparametrized {
		return poly.Ones(cfg.M), eigen.Interval{}, nil
	}
	iv, err := IntervalFor(sp, cfg)
	if err != nil {
		return poly.Alphas{}, eigen.Interval{}, err
	}
	if err := iv.Validate(); err != nil {
		return poly.Alphas{}, iv, err
	}
	var a poly.Alphas
	switch cfg.Coeffs {
	case LeastSquaresCoeffs:
		a, err = poly.LeastSquares(cfg.M, iv.Lo, iv.Hi)
	case ChebyshevCoeffs:
		a, err = poly.ChebyshevMinMax(cfg.M, iv.Lo, iv.Hi)
	case WeightedLSCoeffs:
		a, err = poly.LeastSquaresWeighted(cfg.M, iv.Lo, iv.Hi, poly.Poly{0, 1})
	default:
		err = fmt.Errorf("core: unknown coefficient kind %d", cfg.Coeffs)
	}
	if err != nil {
		return poly.Alphas{}, iv, err
	}
	if !a.PositiveOn(iv.Lo, iv.Hi) {
		return a, iv, fmt.Errorf("core: %s coefficients for m=%d are not positive on [%g, %g] — preconditioner would be indefinite",
			cfg.Coeffs, cfg.M, iv.Lo, iv.Hi)
	}
	return a, iv, nil
}

// BuildPreconditioner assembles the configured preconditioner.
func BuildPreconditioner(sys System, cfg Config) (precond.Preconditioner, poly.Alphas, eigen.Interval, error) {
	return BuildPreconditionerPhased(sys, cfg, nil)
}

// BuildPreconditionerPhased is BuildPreconditioner with stage timing
// hooks: phase(name) is called as each construction stage begins —
// "splitting_build", "spectral_estimate" (only when an interval must be
// estimated), "precond_build" — and the returned func as it ends. A nil
// phase skips all instrumentation; the engine passes its span tracer so a
// job's trace shows where preconditioner setup time went.
func BuildPreconditionerPhased(sys System, cfg Config, phase func(name string) (end func())) (precond.Preconditioner, poly.Alphas, eigen.Interval, error) {
	if phase == nil {
		phase = func(string) func() { return func() {} }
	}
	if cfg.M == 0 {
		return precond.Identity{}, poly.Alphas{}, eigen.Interval{}, nil
	}
	if cfg.M < 0 {
		return nil, poly.Alphas{}, eigen.Interval{}, fmt.Errorf("core: negative step count %d", cfg.M)
	}
	end := phase("splitting_build")
	sp, err := BuildSplitting(sys, cfg)
	end()
	if err != nil {
		return nil, poly.Alphas{}, eigen.Interval{}, err
	}
	// Pin the interval before BuildCoefficients so spectral estimation —
	// the dominant setup cost for parametrized coefficients — times as its
	// own stage (BuildCoefficients then finds it pre-resolved).
	if cfg.Coeffs != Unparametrized && cfg.Interval == nil {
		end = phase("spectral_estimate")
		iv, err := IntervalFor(sp, cfg)
		end()
		if err != nil {
			return nil, poly.Alphas{}, eigen.Interval{}, err
		}
		cfg.Interval = &iv
	}
	end = phase("precond_build")
	defer end()
	a, iv, err := BuildCoefficients(sp, cfg)
	if err != nil {
		return nil, a, iv, err
	}
	p, err := precond.NewMStep(sp, a)
	if err != nil {
		return nil, a, iv, err
	}
	return p, a, iv, nil
}

// Solve runs the configured m-step PCG on the system. The execution shape
// — matvec backend and kernel fan-out — comes from the planner, the same
// decision path the solver service uses.
func Solve(sys System, cfg Config) (Result, error) {
	if sys.K == nil || len(sys.F) != sys.K.Rows {
		return Result{}, fmt.Errorf("core: malformed system (K nil or |F|=%d != n)", len(sys.F))
	}
	if !kernel.ValidName(cfg.Kernel) {
		return Result{}, fmt.Errorf("core: unknown kernel policy %q (want auto or portable)", cfg.Kernel)
	}
	if _, err := plan.ParseTuning(cfg.Tuning); err != nil {
		return Result{}, err
	}
	p, a, iv, err := BuildPreconditioner(sys, cfg)
	if err != nil {
		return Result{}, err
	}
	pl := plan.Planner{}.Plan(plan.Inputs{
		K: sys.K, Policy: cfg.Backend, RHS: 1, M: cfg.M, Workers: cfg.Workers, Kernel: cfg.Kernel,
	})
	op, backend, err := operatorFor(sys.K, pl.Backend)
	if err != nil {
		return Result{}, err
	}
	if cfg.Tol <= 0 && cfg.RelResidualTol <= 0 {
		cfg.Tol = 1e-6
	}
	u, st, err := cg.Solve(op, sys.F, p, cg.Options{
		Tol:            cfg.Tol,
		RelResidualTol: cfg.RelResidualTol,
		MaxIter:        cfg.MaxIter,
		History:        cfg.History,
		Workers:        pl.Workers,
	})
	res := Result{U: u, Stats: st, Precond: p.Name(), Alphas: a, Interval: iv, Backend: backend.String(), Kernel: pl.Kernel}
	return res, err
}

// PlateSystem builds the paper's plane-stress test problem in the 6-color
// ordering, returning the system together with the plate for callers that
// need the mesh (partitioners, renderers, solution un-permutation).
func PlateSystem(rows, cols int, opt fem.Options) (System, *fem.Plate, error) {
	plate, err := fem.NewPlate(rows, cols, opt)
	if err != nil {
		return System{}, nil, err
	}
	return System{
		K:          plate.KColored,
		F:          plate.ColoredRHS(),
		GroupStart: plate.Ordering.GroupStart[:],
	}, plate, nil
}
