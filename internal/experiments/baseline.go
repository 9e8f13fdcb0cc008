package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fem"
	"repro/internal/splitting"
	"repro/internal/stationary"
)

// BaselineRow compares one solver on the plate problem. Sweeps counts one
// application of the underlying stationary operator, so PCG rows report
// iterations × m (plus the CG overhead column separately).
type BaselineRow struct {
	Method     string
	Iterations int // outer iterations (CG) or sweeps (stationary)
	Sweeps     int // total stationary-operator applications
	Converged  bool
}

// BaselineResult compares the paper's PCG method against the pure
// stationary methods it is built from — the acceleration CG provides on
// top of SSOR is the reason the method exists.
type BaselineResult struct {
	Rows      int
	Cols      int
	Equations int
	Table     []BaselineRow
}

// BaselineStudy solves the rows×cols plate with pure SSOR iteration, pure
// multicolor SOR iteration, plain CG, and the m-step SSOR PCG method.
func BaselineStudy(rows, cols int, tol float64) (BaselineResult, error) {
	plate, err := fem.NewPlate(rows, cols, fem.Options{})
	if err != nil {
		return BaselineResult{}, err
	}
	kc := plate.KColored
	rhs := plate.ColoredRHS()
	start := plate.Ordering.GroupStart[:]
	out := BaselineResult{Rows: rows, Cols: cols, Equations: plate.N()}

	// Pure multicolor SSOR stationary iteration.
	mc, err := splitting.NewSixColorSSOR(kc, start)
	if err != nil {
		return BaselineResult{}, err
	}
	_, st1, err := stationary.Solve(mc, rhs, stationary.Options{Tol: tol, MaxIter: 200000})
	if err != nil {
		return BaselineResult{}, fmt.Errorf("ssor stationary: %w", err)
	}
	out.Table = append(out.Table, BaselineRow{
		Method: "SSOR stationary", Iterations: st1.Sweeps, Sweeps: st1.Sweeps, Converged: st1.Converged,
	})

	// Pure multicolor SOR (forward sweeps only).
	sor, err := stationary.NewMulticolorSOR(kc, 1, start)
	if err != nil {
		return BaselineResult{}, err
	}
	_, st2, err := stationary.Solve(sor, rhs, stationary.Options{Tol: tol, MaxIter: 400000})
	if err != nil {
		return BaselineResult{}, fmt.Errorf("sor stationary: %w", err)
	}
	out.Table = append(out.Table, BaselineRow{
		Method: "multicolor SOR stationary", Iterations: st2.Sweeps, Sweeps: st2.Sweeps, Converged: st2.Converged,
	})

	// CG and m-step PCG.
	sys := core.System{K: kc, F: rhs, GroupStart: start}
	runPCG := func(m int, coeffs core.CoeffKind, label string) error {
		cfg := core.Config{M: m, Coeffs: coeffs, Tol: tol, MaxIter: 100000}
		res, err := engine.SolveOnce(engine.Prebuilt{Sys: sys, Config: cfg})
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		st := res[0].Stats
		out.Table = append(out.Table, BaselineRow{
			Method:     label,
			Iterations: st.Iterations,
			Sweeps:     st.Iterations * max(m, 1),
			Converged:  st.Converged,
		})
		return nil
	}
	if err := runPCG(0, core.Unparametrized, "CG"); err != nil {
		return BaselineResult{}, err
	}
	if err := runPCG(1, core.Unparametrized, "1-step SSOR PCG"); err != nil {
		return BaselineResult{}, err
	}
	if err := runPCG(4, core.LeastSquaresCoeffs, "4-step SSOR PCG (LS)"); err != nil {
		return BaselineResult{}, err
	}
	return out, nil
}

// Render formats the comparison.
func (b BaselineResult) Render() string {
	var s strings.Builder
	fmt.Fprintf(&s, "Baselines, %d×%d plate (%d equations): CG acceleration vs pure stationary iteration\n",
		b.Rows, b.Cols, b.Equations)
	fmt.Fprintf(&s, "%-28s %12s %16s\n", "method", "iterations", "stationary work")
	for _, r := range b.Table {
		fmt.Fprintf(&s, "%-28s %12d %16d\n", r.Method, r.Iterations, r.Sweeps)
	}
	s.WriteString("the m-step PCG method does the work of a few dozen SSOR sweeps where the\n")
	s.WriteString("pure stationary methods need thousands — CG acceleration is the point.\n")
	return s.String()
}
