package vectorsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/engine"
	"repro/internal/fem"
)

// Run is one simulated CYBER solve of the paper's plate problem.
type Run struct {
	Rows, Cols int
	M          int  // preconditioner steps (0 = plain CG)
	Param      bool // parametrized coefficients (least squares)?
	Iterations int  // N_m
	Seconds    float64
	VectorLen  int // per-color padded vector length v
	Cost       CostBreakdown
	Precond    string
}

// Label renders the paper's row label: "0", "3", "4P", ...
func (r Run) Label() string {
	if r.M == 0 {
		return "0"
	}
	if r.Param {
		return fmt.Sprintf("%dP", r.M)
	}
	return fmt.Sprintf("%d", r.M)
}

// SimulatePlate runs the m-step multicolor SSOR PCG on an rows×cols plate
// under the machine model, returning iterations and simulated seconds. The
// numerics are the real solver (engine.SolveOnce); only the clock is
// modeled. tol is the paper's ‖Δu‖_∞ stopping threshold.
func SimulatePlate(model Model, rows, cols, m int, param bool, tol float64) (Run, error) {
	return SimulatePlateWithInterval(model, rows, cols, m, param, tol, nil)
}

// SimulatePlateWithInterval is SimulatePlate with a precomputed spectral
// interval for the parametrized coefficients, letting sweeps over m (Table
// 2's columns) amortize the spectral estimate.
func SimulatePlateWithInterval(model Model, rows, cols, m int, param bool, tol float64, iv *eigen.Interval) (Run, error) {
	sys, _, err := core.PlateSystem(rows, cols, fem.Options{})
	if err != nil {
		return Run{}, err
	}
	cfg := core.Config{M: m, Splitting: core.SSORMulticolor, Tol: tol, MaxIter: 100000, Interval: iv}
	if param {
		if m < 2 {
			return Run{}, fmt.Errorf("vectorsim: parametrization needs m >= 2 (m=1 is a scalar multiple)")
		}
		cfg.Coeffs = core.LeastSquaresCoeffs
	}
	res, err := engine.SolveOnce(engine.Prebuilt{Sys: sys, Config: cfg})
	if err != nil {
		return Run{}, fmt.Errorf("vectorsim: solve (m=%d, param=%v): %w", m, param, err)
	}
	// The paper stores constrained nodes too: per-color padded length
	// v = ⌈rows·cols/3⌉ node values per color group.
	pad := (rows*cols + 2) / 3
	cost, err := Analyze(model, sys.K, sys.GroupStart, pad)
	if err != nil {
		return Run{}, err
	}
	return Run{
		Rows: rows, Cols: cols, M: m, Param: param,
		Iterations: res[0].Stats.Iterations,
		Seconds:    cost.Time(res[0].Stats.Iterations, m),
		VectorLen:  pad,
		Cost:       cost,
		Precond:    res[0].Precond,
	}, nil
}
