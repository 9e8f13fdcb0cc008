package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/femachine"
	"repro/internal/mesh"
	"repro/internal/poly"
)

// Table3Row is one preconditioner row: iterations (identical across
// processor counts), per-P simulated seconds and speedups.
type Table3Row struct {
	Spec       MSpec
	Iterations int
	Seconds    map[int]float64 // processor count -> simulated time
	Speedups   map[int]float64 // processor count -> T1/TP
}

// Table3Result is the full Table 3 reproduction.
type Table3Result struct {
	Rows      int
	Cols      int
	Equations int
	Tol       float64
	Procs     []int
	TableRows []Table3Row
}

// PaperTable3Specs is the row list of the paper's Table 3:
// m = 0, 1, 2, 2P, 3, 3P, 4, 4P, 5P, 6P.
func PaperTable3Specs() []MSpec {
	return []MSpec{
		{0, false}, {1, false}, {2, false}, {2, true},
		{3, false}, {3, true}, {4, false}, {4, true},
		{5, true}, {6, true},
	}
}

// Table3 reruns the paper's Finite Element Machine experiment: the
// rows×cols plate solved on each processor count with the m-step SSOR PCG
// method. Row strips are used for P ≤ rows/2 and column strips otherwise,
// matching Figure 5's assignments for the 6×6 plate (2 procs: halves;
// 5 procs: one free column each).
func Table3(rows, cols int, procs []int, specs []MSpec, tol float64, tm femachine.TimeModel) (Table3Result, error) {
	plate, err := fem.NewPlate(rows, cols, fem.Options{})
	if err != nil {
		return Table3Result{}, err
	}
	sys := core.System{K: plate.KColored, F: plate.ColoredRHS(), GroupStart: plate.Ordering.GroupStart[:]}
	sp, err := core.BuildSplitting(sys, core.Config{Splitting: core.SSORMulticolor})
	if err != nil {
		return Table3Result{}, err
	}
	iv, err := core.IntervalFor(sp, core.Config{})
	if err != nil {
		return Table3Result{}, err
	}

	out := Table3Result{Rows: rows, Cols: cols, Equations: plate.N(), Tol: tol, Procs: procs}
	for _, s := range specs {
		var alphas []float64
		if s.M > 0 {
			if s.Param {
				a, err := poly.LeastSquares(s.M, iv.Lo, iv.Hi)
				if err != nil {
					return Table3Result{}, err
				}
				alphas = a.Coeffs
			} else {
				alphas = poly.Ones(s.M).Coeffs
			}
		}
		row := Table3Row{Spec: s, Seconds: map[int]float64{}, Speedups: map[int]float64{}}
		for _, p := range procs {
			strat := mesh.RowStrips
			if p > rows/2 {
				strat = mesh.ColStrips
			}
			cfg := femachine.Config{
				P: p, Strategy: strat, M: s.M, Alphas: alphas,
				Tol: tol, MaxIter: 100000, Time: tm,
			}
			mach, err := femachine.New(plate, cfg)
			if err != nil {
				return Table3Result{}, fmt.Errorf("%s P=%d: %w", s.Label(), p, err)
			}
			res, err := mach.Run()
			if err != nil {
				return Table3Result{}, fmt.Errorf("%s P=%d: %w", s.Label(), p, err)
			}
			row.Iterations = res.Iterations
			row.Seconds[p] = res.SimTime
		}
		if t1, ok := row.Seconds[1]; ok {
			for _, p := range procs {
				row.Speedups[p] = t1 / row.Seconds[p]
			}
		}
		out.TableRows = append(out.TableRows, row)
	}
	return out, nil
}

// Render formats the table in the paper's layout.
func (t Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: Finite Element Machine, %d equations (%d×%d plate), tol=%g\n",
		t.Equations, t.Rows, t.Cols, t.Tol)
	fmt.Fprintf(&b, "%-4s %6s", "m", "I")
	for _, p := range t.Procs {
		fmt.Fprintf(&b, " | %10s", fmt.Sprintf("T(P=%d)", p))
		if p != 1 {
			fmt.Fprintf(&b, " %7s", "speedup")
		}
	}
	b.WriteString("\n")
	for _, r := range t.TableRows {
		fmt.Fprintf(&b, "%-4s %6d", r.Spec.Label(), r.Iterations)
		for _, p := range t.Procs {
			fmt.Fprintf(&b, " | %10.4f", r.Seconds[p])
			if p != 1 {
				fmt.Fprintf(&b, " %7.2f", r.Speedups[p])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
