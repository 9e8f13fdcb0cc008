// Package stationary provides full stationary iterative solvers — Jacobi,
// SOR, SSOR and the multicolor SOR of Adams & Ortega (1982) — as the
// baselines the paper's PCG method is measured against, and as standalone
// solvers in their own right. The m-step preconditioner is literally m
// steps of one of these methods; this package runs them to convergence.
package stationary

import (
	"errors"
	"fmt"

	"repro/internal/vec"
)

// ErrMaxIterations reports a run that hit its iteration cap before the
// stopping test fired.
var ErrMaxIterations = errors.New("stationary: maximum iterations reached without convergence")

// Options configure a stationary solve.
type Options struct {
	// Tol is the ‖x^{k+1}−x^k‖_∞ stopping threshold (the paper's test).
	Tol float64
	// MaxIter bounds the sweep count (default 100·n).
	MaxIter int
	// X0 is the initial guess (default zero).
	X0 []float64
	// History records per-sweep ‖Δx‖_∞ when true.
	History bool
}

// Stats reports a stationary solve.
type Stats struct {
	Sweeps     int
	Converged  bool
	FinalXDiff float64
	History    []float64
}

// Sweeper is one stationary step x ← G·x + α·P⁻¹·f, in place. Every
// splitting.Splitting is one, and so is the nonsymmetric SOR sweep, which
// has no symmetric P to be a splitting.Splitting with.
type Sweeper interface {
	// N returns the system dimension.
	N() int
	// Step performs x ← G·x + α·P⁻¹·f in place; f must not alias x.
	Step(x, f []float64, alpha float64)
}

// Solve iterates x ← G·x + P⁻¹·f using the given splitting until the
// successive-iterate test passes. For SPD systems with a convergent
// splitting (SSOR always; Jacobi when 2D−K is SPD) this converges to
// K⁻¹·f.
func Solve(sp Sweeper, f []float64, opt Options) ([]float64, Stats, error) {
	n := sp.N()
	if len(f) != n {
		return nil, Stats{}, fmt.Errorf("stationary: rhs length %d != n %d", len(f), n)
	}
	if opt.Tol <= 0 {
		return nil, Stats{}, fmt.Errorf("stationary: Tol must be positive")
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 100 * n
	}
	x := make([]float64, n)
	if opt.X0 != nil {
		if len(opt.X0) != n {
			return nil, Stats{}, fmt.Errorf("stationary: x0 length %d != n %d", len(opt.X0), n)
		}
		copy(x, opt.X0)
	}
	prev := make([]float64, n)
	var st Stats
	for st.Sweeps = 0; st.Sweeps < opt.MaxIter; {
		copy(prev, x)
		sp.Step(x, f, 1)
		st.Sweeps++
		st.FinalXDiff = vec.MaxAbsDiff(x, prev)
		if opt.History {
			st.History = append(st.History, st.FinalXDiff)
		}
		if st.FinalXDiff < opt.Tol {
			st.Converged = true
			return x, st, nil
		}
	}
	return x, st, ErrMaxIterations
}
