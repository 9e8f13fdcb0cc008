// Package core composes the paper's pieces — a splitting, polynomial
// coefficients and a spectral interval — into the m-step preconditioner
// that is the paper's contribution, and defines the solver's
// configuration and result types. It owns the policy decisions (which
// splitting, which coefficient criterion, which spectral interval) and
// delegates the mechanics to internal/splitting, internal/poly,
// internal/precond and internal/eigen. It runs no solve: internal/engine
// executes every solve with the preconditioner built here, one-shot
// solves included (engine.SolveOnce).
package core

import (
	"fmt"

	"repro/internal/cg"
	"repro/internal/eigen"
	"repro/internal/fem"
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
	// Interval optionally pins [λ₁, λₙ] for parametrized coefficients.
	// When nil, IntervalFor decides: the fixed SSOR bound where it
	// applies, else an estimate from a short Lanczos run on the
	// splitting's symmetrized operator (eigen.EstimateInterval).
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
	// Backend selects the matvec storage for K (the preconditioner always
	// works from the CSR form). The zero value is BackendAuto: probe the
	// structure and pick DIA for banded-diagonal systems, CSR otherwise.
	Backend Backend
	// Subdomains pins the processor count of a decomposed solve (0 = the
	// planner picks from the worker budget and mesh shape). Only
	// meaningful for mesh-backed problems routed through the engine.
	Subdomains int
	// Tuning is the self-tuning planner's feedback policy, one of two:
	// "adapt" lets warm engine sessions re-plan from measured throughput,
	// "off" pins the static plan bit-for-bit; "" defers to the session
	// default. Any other value is rejected. A one-shot solve
	// (engine.SolveOnce) runs on a throwaway engine that never collects
	// the observations a re-plan needs, so the knob only gates validation
	// there. Deliberately excluded from the engine's problem cache key —
	// it is an execution policy, not part of the prepared problem.
	Tuning string
}

// Result reports a solve.
type Result struct {
	U        []float64
	Stats    cg.Stats
	Precond  string
	Alphas   poly.Alphas    // zero-value when M == 0
	Interval eigen.Interval // the α's interval; zero-value for unit coefficients
	// Backend is the matvec storage the solve actually ran on ("csr" or
	// "dia") — the resolved form of Config.Backend.
	Backend string
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

// estimateSeed is the seed of the spectral estimate's start vector.
const estimateSeed = 1

// ssorBound is the fixed interval least-squares coefficients fit on where
// fitsOnSSORBound holds. Its lower end is any positive value far below
// λmin: the least-squares fit barely depends on it.
var ssorBound = eigen.Interval{Lo: 1e-9, Hi: 1 + intervalPad}

// fitsOnSSORBound reports whether cfg's coefficients fit on ssorBound
// instead of an estimate: least squares of either weight, for an SSOR
// splitting (multicolor or natural) at ω = 1 and 1 ≤ M ≤
// poly.LeastSquaresStableM. For an SPD K and 0 < ω < 2, P − K is positive
// semidefinite, so spec(P⁻¹K) ⊂ (0, 1]; at ω = 1, P − K = L·D⁻¹·U is
// singular, so λmax = 1 exactly. Chebyshev's fit does depend on λmin; at
// ω ≠ 1 λmax lies below 1; and past poly.LeastSquaresStableM the fit's
// rounding noise depends on the interval's ends: all of those keep the
// estimate. It ignores cfg.Interval: IntervalSource checks a pinned
// interval first.
func fitsOnSSORBound(cfg Config) bool {
	ssor := cfg.Splitting == SSORMulticolor || cfg.Splitting == SSORNatural
	ls := cfg.Coeffs == LeastSquaresCoeffs || cfg.Coeffs == WeightedLSCoeffs
	return ssor && ls && (cfg.Omega == 0 || cfg.Omega == 1) && cfg.M >= 1 && cfg.M <= poly.LeastSquaresStableM
}

// Where IntervalFor takes a configuration's interval from
// (IntervalSource): the pinned Config.Interval, the SSOR bound, or
// eigen.EstimateInterval.
const (
	SourcePinned    = "pinned"
	SourceSSORBound = "ssor-bound"
	SourceEstimate  = "estimate"
)

// IntervalSource returns where IntervalFor takes cfg's interval from; only
// SourceEstimate runs a spectral estimate.
func IntervalSource(cfg Config) string {
	if cfg.Interval != nil {
		return SourcePinned
	}
	if fitsOnSSORBound(cfg) {
		return SourceSSORBound
	}
	return SourceEstimate
}

// RunsEstimate reports whether building cfg's preconditioner runs a
// spectral estimate: parametrized coefficients, M ≥ 1 and IntervalSource
// SourceEstimate. Only such an interval is worth pinning for reuse; the
// SSOR bound costs nothing to recompute.
func RunsEstimate(cfg Config) bool {
	return cfg.M >= 1 && cfg.Coeffs != Unparametrized && IntervalSource(cfg) == SourceEstimate
}

// IntervalFor returns the spectral interval the configuration's
// parametrized coefficients run on: the pinned cfg.Interval when set,
// [1e-9, 1.02] for SSOR least squares at ω = 1 and m ≤ 10, an estimate
// from a short Lanczos run on the splitting otherwise (always for a Config
// without coefficients). The estimate is the expensive half of coefficient
// construction, split out so instrumented callers can time it as its own
// stage. Every caller that needs an interval goes through here, so the
// pad, the bound and the seed are defined once.
func IntervalFor(sp splitting.Splitting, cfg Config) (eigen.Interval, error) {
	switch IntervalSource(cfg) {
	case SourcePinned:
		return *cfg.Interval, nil
	case SourceSSORBound:
		return ssorBound, nil
	}
	return eigen.EstimateInterval(sp, intervalPad, estimateSeed)
}

// BuildCoefficients computes the α for the configured criterion on the
// interval IntervalFor decides.
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
// hooks: phase(name, attrs...) is called as each construction stage
// begins — "splitting_build", "spectral_estimate" (only when IntervalSource
// says an estimate runs), "precond_build" — and the returned func as it
// ends. attrs are key/value pairs; for parametrized coefficients
// precond_build carries "interval_source" (IntervalSource) and the
// interval's "interval_lo" and "interval_hi". A nil phase skips all
// instrumentation; the engine passes its span tracer so a job's trace
// shows where preconditioner setup time went and where the interval came
// from.
func BuildPreconditionerPhased(sys System, cfg Config, phase func(name string, attrs ...any) (end func())) (precond.Preconditioner, poly.Alphas, eigen.Interval, error) {
	if phase == nil {
		phase = func(string, ...any) func() { return func() {} }
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
	var attrs []any
	if cfg.Coeffs != Unparametrized {
		// Resolve the interval before BuildCoefficients so spectral
		// estimation — the dominant setup cost where it runs — times as its
		// own stage (BuildCoefficients then finds it pinned).
		src := IntervalSource(cfg)
		end = func() {}
		if src == SourceEstimate {
			end = phase("spectral_estimate")
		}
		iv, err := IntervalFor(sp, cfg)
		end()
		if err != nil {
			return nil, poly.Alphas{}, eigen.Interval{}, err
		}
		cfg.Interval = &iv
		attrs = []any{"interval_source", src, "interval_lo", iv.Lo, "interval_hi", iv.Hi}
	}
	end = phase("precond_build", attrs...)
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
