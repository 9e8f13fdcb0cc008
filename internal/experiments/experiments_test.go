package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/femachine"
	"repro/internal/mesh"
	"repro/internal/vectorsim"
)

func TestTable1ShapeAndPositivity(t *testing.T) {
	res, err := Table1(12, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (m=2..4)", len(res.Rows))
	}
	for _, r := range res.Rows {
		if len(r.Ours) != r.M {
			t.Fatalf("m=%d has %d coefficients", r.M, len(r.Ours))
		}
		if !r.Positivity {
			t.Fatalf("m=%d least-squares coefficients not positive on interval", r.M)
		}
		if r.CondBound <= 1 {
			t.Fatalf("m=%d κ bound %g must exceed 1", r.M, r.CondBound)
		}
	}
	// Condition bound improves with m.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].CondBound >= res.Rows[i-1].CondBound {
			t.Fatalf("κ bound not improving: %v", res.Rows)
		}
	}
	if !strings.Contains(res.Render(), "Table 1") {
		t.Fatal("render missing title")
	}
}

// smallTable2 runs a reduced sweep (small sizes, few specs) for testing.
func smallTable2(t *testing.T) Table2Result {
	t.Helper()
	specs := []MSpec{{0, false}, {1, false}, {2, false}, {2, true}, {3, true}, {4, true}, {5, true}, {6, true}}
	res, err := Table2(vectorsim.Cyber203(), []int{10, 24}, specs, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTable2Observation1ParametrizedBetter(t *testing.T) {
	res := smallTable2(t)
	for _, col := range res.Columns {
		byLabel := map[string]Table2Cell{}
		for _, c := range col.Cells {
			byLabel[c.Spec.Label()] = c
		}
		plain, param := byLabel["2"], byLabel["2P"]
		if param.Iterations > plain.Iterations {
			t.Fatalf("a=%d: 2P iterations %d > 2 iterations %d", col.A, param.Iterations, plain.Iterations)
		}
		if param.Seconds > plain.Seconds {
			t.Fatalf("a=%d: 2P time %g > 2 time %g", col.A, param.Seconds, plain.Seconds)
		}
	}
}

func TestTable2Observation2OptimalMGrowsWithSize(t *testing.T) {
	res := smallTable2(t)
	if len(res.Columns) < 2 {
		t.Fatal("need two sizes")
	}
	small := res.Columns[0].OptimalM()
	large := res.Columns[len(res.Columns)-1].OptimalM()
	if large.M < small.M {
		t.Fatalf("optimal m shrank with size: a=%d→%s, a=%d→%s",
			res.Columns[0].A, small.Label(), res.Columns[len(res.Columns)-1].A, large.Label())
	}
}

func TestTable2IterationsDropWithM(t *testing.T) {
	res := smallTable2(t)
	for _, col := range res.Columns {
		if col.Cells[0].Spec.M != 0 {
			t.Fatal("first row should be m=0")
		}
		cgIters := col.Cells[0].Iterations
		for _, c := range col.Cells[1:] {
			if c.Iterations >= cgIters {
				t.Fatalf("a=%d %s: %d iterations not below CG's %d",
					col.A, c.Spec.Label(), c.Iterations, cgIters)
			}
		}
	}
}

func TestTable2Render(t *testing.T) {
	res := smallTable2(t)
	out := res.Render()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "optimal m") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestInequality42Consistency(t *testing.T) {
	res := smallTable2(t)
	cols := Inequality42(res)
	if len(cols) != len(res.Columns) {
		t.Fatalf("columns %d vs %d", len(cols), len(res.Columns))
	}
	for _, c := range cols {
		if c.AOverB <= 0 {
			t.Fatalf("a=%d: nonpositive A/B", c.A)
		}
		for _, r := range c.Rows {
			if r.Threshold <= 0 || r.Threshold >= 1 {
				t.Fatalf("threshold %g out of (0,1)", r.Threshold)
			}
			if r.Beneficial != (r.Ratio < r.Threshold) {
				t.Fatal("verdict inconsistent with inequality")
			}
		}
	}
	if !strings.Contains(RenderInequality(cols), "Inequality (4.2)") {
		t.Fatal("render missing title")
	}
}

func TestTable3PaperShape(t *testing.T) {
	specs := []MSpec{{0, false}, {1, false}, {2, false}, {2, true}, {3, true}}
	res, err := Table3(6, 6, []int{1, 2, 5}, specs, 1e-6, femachine.DefaultTimeModel())
	if err != nil {
		t.Fatal(err)
	}
	if res.Equations != 60 {
		t.Fatalf("equations = %d, want 60", res.Equations)
	}
	for _, r := range res.TableRows {
		s2, s5 := r.Speedups[2], r.Speedups[5]
		if s2 <= 1 || s2 > 2 || s5 <= s2 || s5 > 5 {
			t.Fatalf("%s: speedups %v implausible", r.Spec.Label(), r.Speedups)
		}
	}
	// Observation: CG's speedup tops the preconditioned rows.
	if res.TableRows[0].Spec.M != 0 {
		t.Fatal("first row should be CG")
	}
	cgS2 := res.TableRows[0].Speedups[2]
	for _, r := range res.TableRows[1:] {
		if r.Speedups[2] > cgS2+1e-9 {
			t.Fatalf("%s speedup %g above CG's %g", r.Spec.Label(), r.Speedups[2], cgS2)
		}
	}
	if !strings.Contains(res.Render(), "Table 3") {
		t.Fatal("render missing title")
	}
}

func TestConditionStudyM2Bound(t *testing.T) {
	specs := []MSpec{{1, false}, {2, false}, {3, false}, {2, true}, {3, true}}
	res, err := ConditionStudy(8, 8, specs)
	if err != nil {
		t.Fatal(err)
	}
	if res.KappaCG <= 1 {
		t.Fatalf("κ(K) = %g", res.KappaCG)
	}
	for _, r := range res.Table {
		if r.Kappa <= 0 {
			t.Fatalf("%s: κ = %g", r.Spec.Label(), r.Kappa)
		}
		// §2.1: unparametrized improvement over m=1 is at most m²
		// (allow 10% estimator slack).
		if !r.Spec.Param && r.RatioVsM1 > float64(r.Spec.M*r.Spec.M)*1.1 {
			t.Fatalf("%s: improvement %g exceeds m²=%d", r.Spec.Label(), r.RatioVsM1, r.Spec.M*r.Spec.M)
		}
	}
	if !strings.Contains(res.Render(), "Condition numbers") {
		t.Fatal("render missing title")
	}
}

func TestOverheadStudyObservation3(t *testing.T) {
	for _, procs := range [][]int{{1, 2, 5}, {1, 2}} {
		res, err := OverheadStudy(6, 6, procs, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		// Find the P=2, m=3 row: preconditioner comm must dominate reductions.
		found := false
		for _, r := range res.Table {
			if r.P == 2 && r.Spec.M == 3 {
				found = true
				if r.PrecondCommTime <= r.ReduceWaitTime {
					t.Fatalf("precond comm %g not above reduce wait %g", r.PrecondCommTime, r.ReduceWaitTime)
				}
			}
		}
		if !found {
			t.Fatal("P=2 m=3 row missing")
		}
		// The ablation runs CG at the largest P and says so.
		pmax := procs[len(procs)-1]
		if res.AblationP != pmax {
			t.Fatalf("procs %v: ablation at P=%d, want %d", procs, res.AblationP, pmax)
		}
		for _, r := range res.Table {
			if r.P == pmax && r.Spec.M == 0 && r.SimTime != res.TreeTime {
				t.Fatalf("procs %v: tree time %g, P=%d CG wall time %g", procs, res.TreeTime, pmax, r.SimTime)
			}
		}
		if res.TreeTime >= res.RingTime {
			t.Fatalf("sum/max circuit (%g) not faster than ring (%g)", res.TreeTime, res.RingTime)
		}
		out := res.Render()
		if !strings.Contains(out, "overhead") {
			t.Fatal("render missing title")
		}
		if want := fmt.Sprintf("ablation (P=%d, CG)", pmax); !strings.Contains(out, want) {
			t.Fatalf("procs %v: render lacks %q:\n%s", procs, want, out)
		}
	}
}

func TestFigures(t *testing.T) {
	out, err := AllFigures()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "Figure 2", "Figure 4", "five-processor"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figures missing %q", want)
		}
	}
	// Figure 1 first line of the 6×6 grid: row 5 colors (i+j)%3.
	if !strings.Contains(out, "G R B G R B") {
		t.Fatalf("figure 1 coloring unexpected:\n%s", Figure1(6, 6))
	}
}

func TestUsedLinkDirections(t *testing.T) {
	dirs := UsedLinkDirections(mesh.NewGrid(6, 6))
	want := []string{"E", "N", "NE", "S", "SW", "W"}
	if len(dirs) != len(want) {
		t.Fatalf("directions %v, want %v", dirs, want)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("directions %v, want %v", dirs, want)
		}
	}
}

func TestMSpecLabels(t *testing.T) {
	if (MSpec{0, false}).Label() != "0" || (MSpec{3, false}).Label() != "3" || (MSpec{4, true}).Label() != "4P" {
		t.Fatal("labels wrong")
	}
	if len(PaperTable2Specs()) != 13 {
		t.Fatalf("paper table 2 has %d specs", len(PaperTable2Specs()))
	}
	if len(PaperTable3Specs()) != 10 {
		t.Fatalf("paper table 3 has %d specs", len(PaperTable3Specs()))
	}
}
