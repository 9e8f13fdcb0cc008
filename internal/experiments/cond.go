package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/engine"
	"repro/internal/fem"
)

// CondRow is one measurement of the §2.1 claim: the condition number of
// the m-step-preconditioned operator.
type CondRow struct {
	Spec       MSpec
	Kappa      float64
	Iterations int
	// RatioVsM1 is κ(M₁)/κ(M_m): the paper proves this improvement is at
	// most m² for the unparametrized SSOR preconditioner.
	RatioVsM1 float64
}

// CondResult is the condition-number study.
type CondResult struct {
	Rows    int
	Cols    int
	KappaCG float64 // κ(K) itself (m = 0)
	Table   []CondRow
}

// ConditionStudy measures κ(M_m⁻¹K) for each spec via the Lanczos
// tridiagonal of converged PCG runs.
func ConditionStudy(rows, cols int, specs []MSpec) (CondResult, error) {
	sys, _, err := core.PlateSystem(rows, cols, fem.Options{})
	if err != nil {
		return CondResult{}, err
	}
	out := CondResult{Rows: rows, Cols: cols}
	kappaOf := func(cfg core.Config) (float64, cg.Stats, error) {
		cfg.RelResidualTol = 1e-12
		cfg.MaxIter = 100000
		res, err := engine.SolveOnce(engine.Prebuilt{Sys: sys, Config: cfg})
		if err != nil {
			return 0, cg.Stats{}, err
		}
		_, _, kappa, err := eigen.CondFromCGStats(res[0].Stats)
		return kappa, res[0].Stats, err
	}
	var err2 error
	out.KappaCG, _, err2 = kappaOf(core.Config{M: 0})
	if err2 != nil {
		return CondResult{}, err2
	}
	var kappaM1 float64
	for _, s := range specs {
		if s.M == 0 {
			continue
		}
		cfg := core.Config{M: s.M}
		if s.Param {
			cfg.Coeffs = core.LeastSquaresCoeffs
		}
		kappa, st, err := kappaOf(cfg)
		if err != nil {
			return CondResult{}, fmt.Errorf("%s: %w", s.Label(), err)
		}
		if s.M == 1 {
			kappaM1 = kappa
		}
		row := CondRow{Spec: s, Kappa: kappa, Iterations: st.Iterations}
		if kappaM1 > 0 {
			row.RatioVsM1 = kappaM1 / kappa
		}
		out.Table = append(out.Table, row)
	}
	return out, nil
}

// Render formats the study.
func (c CondResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Condition numbers, %d×%d plate (Lanczos estimates from converged PCG runs)\n", c.Rows, c.Cols)
	fmt.Fprintf(&b, "κ(K) = %.1f (plain CG)\n", c.KappaCG)
	fmt.Fprintf(&b, "%-4s %12s %8s %14s %10s\n", "m", "κ(M_m⁻¹K)", "iters", "κ(M₁)/κ(M_m)", "m² bound")
	for _, r := range c.Table {
		bound := "-"
		if !r.Spec.Param {
			bound = fmt.Sprintf("%d", r.Spec.M*r.Spec.M)
		}
		fmt.Fprintf(&b, "%-4s %12.2f %8d %14.2f %10s\n",
			r.Spec.Label(), r.Kappa, r.Iterations, r.RatioVsM1, bound)
	}
	b.WriteString("§2.1: unparametrized improvement κ(M₁)/κ(M_m) is bounded by m²;\n")
	b.WriteString("parametrized rows (P) may exceed it — that is the point of §2.2.\n")
	return b.String()
}
