// Package experiments regenerates every table and figure of the paper's
// evaluation: Table 1 (parametrized coefficients), Table 2 (CYBER 203
// iterations and timings), Table 3 (Finite Element Machine iterations,
// timings, speedups), the inequality (4.2) optimal-m analysis, the §2.1
// condition-number study, the §4 observation-(3) overhead breakdown, and
// ASCII renderings of Figures 1–5. Each driver returns structured rows
// plus a formatted table so the cmd/experiments binary, the benchmarks and
// EXPERIMENTS.md all share one source of truth.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/fem"
	"repro/internal/poly"
)

// Table1Row compares our computed least-squares coefficients with the
// paper's printed Table 1 values for one m.
type Table1Row struct {
	M          int
	Ours       []float64
	Paper      []float64 // nil when the paper does not list this m
	CondBound  float64   // κ bound max q / min q over the interval
	Positivity bool
}

// Table1Result is the full Table 1 reproduction.
type Table1Result struct {
	Interval eigen.Interval
	Rows     []Table1Row
}

// Table1 computes the least-squares α for the m-step SSOR preconditioner
// over the spectral interval of the reference plate (rows×cols), for
// m = 2..maxM.
func Table1(rows, cols, maxM int) (Table1Result, error) {
	sys, _, err := core.PlateSystem(rows, cols, fem.Options{})
	if err != nil {
		return Table1Result{}, err
	}
	sp, err := core.BuildSplitting(sys, core.Config{Splitting: core.SSORMulticolor})
	if err != nil {
		return Table1Result{}, err
	}
	iv, err := core.IntervalFor(sp, core.Config{})
	if err != nil {
		return Table1Result{}, err
	}
	paper := poly.PaperTable1()
	out := Table1Result{Interval: iv}
	for m := 2; m <= maxM; m++ {
		a, err := poly.LeastSquares(m, iv.Lo, iv.Hi)
		if err != nil {
			return Table1Result{}, err
		}
		out.Rows = append(out.Rows, Table1Row{
			M:          m,
			Ours:       a.Coeffs,
			Paper:      paper[m],
			CondBound:  a.ConditionBound(iv.Lo, iv.Hi),
			Positivity: a.PositiveOn(iv.Lo, iv.Hi),
		})
	}
	return out, nil
}

// Render formats the table.
func (t Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: least-squares α for the m-step SSOR PCG method\n")
	fmt.Fprintf(&b, "spectral interval of P⁻¹K: [%.4f, %.4f]\n", t.Interval.Lo, t.Interval.Hi)
	fmt.Fprintf(&b, "%-3s  %-44s  %-30s  %10s\n", "m", "ours (α₀..α_{m-1})", "paper (as printed)", "κ bound")
	for _, r := range t.Rows {
		ours := make([]string, len(r.Ours))
		for i, v := range r.Ours {
			ours[i] = fmt.Sprintf("%.3f", v)
		}
		paper := "-"
		if r.Paper != nil {
			ps := make([]string, len(r.Paper))
			for i, v := range r.Paper {
				ps[i] = fmt.Sprintf("%.2f", v)
			}
			paper = strings.Join(ps, ", ")
		}
		fmt.Fprintf(&b, "%-3d  %-44s  %-30s  %10.3f\n", r.M, strings.Join(ours, ", "), paper, r.CondBound)
	}
	b.WriteString("note: the paper optimized over its own (unstated) spectral interval;\n")
	b.WriteString("shapes agree (α₀ ≈ 1, growing alternating tail) while magnitudes differ.\n")
	return b.String()
}
