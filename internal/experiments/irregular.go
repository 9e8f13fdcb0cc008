package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/splitting"
)

// IrregularRow is one solve of an irregular-region problem.
type IrregularRow struct {
	Shape      string
	NumColors  int
	Equations  int
	Spec       MSpec
	Iterations int
}

// IrregularResult is the §5 future-work study: the m-step multicolor SSOR
// PCG method applied to non-rectangular regions, with the coloring found
// by the greedy graph colorer.
type IrregularResult struct {
	Rows []IrregularRow
}

// IrregularStudy solves an L-shaped plate and a plate with a hole for a
// sweep of preconditioners.
func IrregularStudy(size int, specs []MSpec) (IrregularResult, error) {
	shapes := []struct {
		name string
		dom  mesh.Domain
	}{
		{"L-shape", mesh.LShapedDomain(mesh.NewGrid(size, size))},
		{"hole", mesh.DomainWithHole(mesh.NewGrid(size, size), 0.4)},
	}
	var out IrregularResult
	for _, sh := range shapes {
		p, err := fem.NewDomainProblem(sh.dom, mesh.LeftEdgeClamped, fem.Material{})
		if err != nil {
			return IrregularResult{}, fmt.Errorf("%s: %w", sh.name, err)
		}
		kc := p.KColored
		rhs := p.ColoredRHS()
		mc, err := splitting.NewSixColorSSOR(kc, p.GroupStart)
		if err != nil {
			return IrregularResult{}, fmt.Errorf("%s: %w", sh.name, err)
		}
		var iv eigen.Interval
		needIv := false
		for _, s := range specs {
			if s.Param {
				needIv = true
			}
		}
		if needIv {
			iv, err = core.IntervalFor(mc, core.Config{})
			if err != nil {
				return IrregularResult{}, fmt.Errorf("%s interval: %w", sh.name, err)
			}
		}
		for _, s := range specs {
			var p2 precond.Preconditioner = precond.Identity{}
			if s.M > 0 {
				a := poly.Ones(s.M)
				if s.Param {
					a, err = poly.LeastSquares(s.M, iv.Lo, iv.Hi)
					if err != nil {
						return IrregularResult{}, err
					}
				}
				p2, err = precond.NewMStep(mc, a)
				if err != nil {
					return IrregularResult{}, err
				}
			}
			_, st, err := cg.Solve(kc, rhs, p2, cg.Options{Tol: 1e-6, MaxIter: 100000})
			if err != nil {
				return IrregularResult{}, fmt.Errorf("%s %s: %w", sh.name, s.Label(), err)
			}
			out.Rows = append(out.Rows, IrregularRow{
				Shape:      sh.name,
				NumColors:  p.NumColors,
				Equations:  p.N(),
				Spec:       s,
				Iterations: st.Iterations,
			})
		}
	}
	return out, nil
}

// Render formats the study.
func (r IrregularResult) Render() string {
	var b strings.Builder
	b.WriteString("Irregular regions (§5 future work): greedy-colored multicolor SSOR PCG\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %-4s %10s\n", "shape", "colors", "eqs", "m", "iterations")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %8d %8d %-4s %10d\n",
			row.Shape, row.NumColors, row.Equations, row.Spec.Label(), row.Iterations)
	}
	b.WriteString("the greedy colorer finds a small valid coloring; the m-step method\n")
	b.WriteString("then applies to the irregular region exactly as to the rectangle.\n")
	return b.String()
}
