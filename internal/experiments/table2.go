package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/fem"
	"repro/internal/vectorsim"
)

// plateInterval estimates the SSOR spectral interval of one plate size.
func plateInterval(rows, cols int) (eigen.Interval, error) {
	sys, _, err := core.PlateSystem(rows, cols, fem.Options{})
	if err != nil {
		return eigen.Interval{}, err
	}
	sp, err := core.BuildSplitting(sys, core.Config{Splitting: core.SSORMulticolor})
	if err != nil {
		return eigen.Interval{}, err
	}
	return core.IntervalFor(sp, core.Config{})
}

// MSpec is one preconditioner row of Table 2: a step count and whether the
// parametrized (least-squares) coefficients are used.
type MSpec struct {
	M     int
	Param bool
}

// Label renders the paper's row labels ("0", "2", "4P", ...).
func (s MSpec) Label() string {
	if s.M == 0 {
		return "0"
	}
	if s.Param {
		return fmt.Sprintf("%dP", s.M)
	}
	return fmt.Sprintf("%d", s.M)
}

// PaperTable2Specs is the row list of the paper's Table 2:
// m = 0, 1, 2, 2P, 3, 3P, 4P..10P.
func PaperTable2Specs() []MSpec {
	specs := []MSpec{{0, false}, {1, false}, {2, false}, {2, true}, {3, false}, {3, true}}
	for m := 4; m <= 10; m++ {
		specs = append(specs, MSpec{m, true})
	}
	return specs
}

// Table2Cell is one (size, spec) measurement.
type Table2Cell struct {
	Spec       MSpec
	Iterations int
	Seconds    float64
}

// Table2Column is one problem size: the paper's a (rows of nodes on a unit
// square plate, so cols = rows) and per-color vector length v.
type Table2Column struct {
	A, VectorLen int
	Cells        []Table2Cell
	BOverA       float64 // measured B/A for the inequality (4.2) analysis
}

// Table2Result is the full Table 2 reproduction.
type Table2Result struct {
	Machine string
	Tol     float64
	Columns []Table2Column
}

// Table2 reruns the paper's Table 2 sweep on the simulated CYBER.
// sizes are the paper's a values (each giving an a×a-node unit square
// plate); specs the preconditioner rows. The spectral interval of each
// size's splitting is estimated once and shared across the column's
// parametrized rows.
func Table2(model vectorsim.Model, sizes []int, specs []MSpec, tol float64) (Table2Result, error) {
	out := Table2Result{Machine: model.Name, Tol: tol}
	for _, a := range sizes {
		col := Table2Column{A: a}
		iv, err := plateInterval(a, a)
		if err != nil {
			return Table2Result{}, fmt.Errorf("a=%d interval: %w", a, err)
		}
		for _, s := range specs {
			run, err := vectorsim.SimulatePlateWithInterval(model, a, a, s.M, s.Param, tol, &iv)
			if err != nil {
				return Table2Result{}, fmt.Errorf("a=%d %s: %w", a, s.Label(), err)
			}
			col.VectorLen = run.VectorLen
			col.BOverA = run.Cost.B / run.Cost.A
			col.Cells = append(col.Cells, Table2Cell{Spec: s, Iterations: run.Iterations, Seconds: run.Seconds})
		}
		out.Columns = append(out.Columns, col)
	}
	return out, nil
}

// OptimalM returns the spec with the smallest simulated time in a column.
func (c Table2Column) OptimalM() MSpec {
	best := c.Cells[0].Spec
	bt := c.Cells[0].Seconds
	for _, cell := range c.Cells[1:] {
		if cell.Seconds < bt {
			best, bt = cell.Spec, cell.Seconds
		}
	}
	return best
}

// Render formats the table in the paper's layout: one column pair
// (iterations I, time T) per problem size.
func (t Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: %s iterations and timings, m-step SSOR PCG (tol=%g)\n", t.Machine, t.Tol)
	fmt.Fprintf(&b, "%-4s", "m")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " | %13s", fmt.Sprintf("a=%d v=%d", c.A, c.VectorLen))
	}
	fmt.Fprintf(&b, "\n%-4s", "")
	for range t.Columns {
		fmt.Fprintf(&b, " | %5s %7s", "I", "T(s)")
	}
	b.WriteString("\n")
	if len(t.Columns) > 0 {
		for i := range t.Columns[0].Cells {
			fmt.Fprintf(&b, "%-4s", t.Columns[0].Cells[i].Spec.Label())
			for _, c := range t.Columns {
				fmt.Fprintf(&b, " | %5d %7.3f", c.Cells[i].Iterations, c.Cells[i].Seconds)
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("optimal m per size:")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "  a=%d→%s", c.A, c.OptimalM().Label())
	}
	b.WriteString("\n")
	return b.String()
}
