package femachine

import (
	"math"
	"testing"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/splitting"
)

// paperPlate is the 60-equation test problem of Table 3.
func paperPlate(t *testing.T) *fem.Plate {
	t.Helper()
	p, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serialSolve runs the reference solver with the same configuration.
func serialSolve(t *testing.T, plate *fem.Plate, m int, tol float64) ([]float64, cg.Stats) {
	t.Helper()
	sys := core.System{K: plate.KColored, F: plate.ColoredRHS(), GroupStart: plate.Ordering.GroupStart[:]}
	var p precond.Preconditioner = precond.Identity{}
	if m > 0 {
		mc, err := splitting.NewSixColorSSOR(sys.K, sys.GroupStart)
		if err != nil {
			t.Fatal(err)
		}
		p, err = precond.NewMStep(mc, poly.Ones(m))
		if err != nil {
			t.Fatal(err)
		}
	}
	u, st, err := cg.Solve(sys.K, sys.F, p, cg.Options{Tol: tol, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	return u, st
}

func runMachine(t *testing.T, plate *fem.Plate, procs, m int, strat mesh.Strategy, tol float64) Result {
	t.Helper()
	cfg := Config{
		P: procs, Strategy: strat, M: m,
		Tol: tol, MaxIter: 10000, Time: DefaultTimeModel(),
	}
	if m > 0 {
		cfg.Alphas = poly.Ones(m).Coeffs
	}
	mach, err := New(plate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleProcessorMatchesSerialExactly(t *testing.T) {
	plate := paperPlate(t)
	for _, m := range []int{0, 1, 3} {
		serialU, serialStats := serialSolve(t, plate, m, 1e-6)
		res := runMachine(t, plate, 1, m, mesh.RowStrips, 1e-6)
		if res.Iterations != serialStats.Iterations {
			t.Fatalf("m=%d: machine %d iterations, serial %d", m, res.Iterations, serialStats.Iterations)
		}
		// Row sums are bitwise-identical to serial, but the machine's inner
		// products accumulate in natural-node order rather than colored
		// order, so iterates drift at rounding level over the run.
		for i := range serialU {
			if d := math.Abs(res.U[i] - serialU[i]); d > 5e-7 {
				t.Fatalf("m=%d: solution deviates at %d by %g", m, i, d)
			}
		}
	}
}

// TestMachineRunsDecomposedSolver: the machine's processors run
// decomp.Solve and its clocks only observe, so the answer and iteration
// count are bit for bit those of a decomposed solve with only Tol set.
func TestMachineRunsDecomposedSolver(t *testing.T) {
	for _, sz := range []struct{ rows, cols int }{{6, 6}, {8, 8}, {13, 9}} {
		plate, err := fem.NewPlate(sz.rows, sz.cols, fem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sys := core.System{K: plate.KColored, F: plate.ColoredRHS(), GroupStart: plate.Ordering.GroupStart[:]}
		sp, err := core.BuildSplitting(sys, core.Config{Splitting: core.SSORMulticolor})
		if err != nil {
			t.Fatal(err)
		}
		iv, err := core.IntervalFor(sp, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := poly.LeastSquares(3, iv.Lo, iv.Hi)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range []struct {
			m      int
			alphas []float64
		}{{0, nil}, {2, poly.Ones(2).Coeffs}, {3, ls.Coeffs}} {
			for _, p := range []int{1, 2, 5} {
				strat := mesh.RowStrips
				if p > sz.rows/2 {
					strat = mesh.ColStrips
				}
				mach, err := New(plate, Config{
					P: p, Strategy: strat, M: pc.m, Alphas: pc.alphas,
					Tol: 1e-6, Time: DefaultTimeModel(),
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := mach.Run()
				if err != nil {
					t.Fatal(err)
				}
				dec, err := decomp.New(decomp.PlateProblem(plate), p, strat)
				if err != nil {
					t.Fatal(err)
				}
				u, st, err := dec.Solve(nil, decomp.Options{M: pc.m, Alphas: pc.alphas, Tol: 1e-6})
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations != st.Iterations {
					t.Fatalf("%d×%d m=%d P=%d: machine %d iterations, decomp %d",
						sz.rows, sz.cols, pc.m, p, res.Iterations, st.Iterations)
				}
				for i := range u {
					if res.U[i] != u[i] {
						t.Fatalf("%d×%d m=%d P=%d: u[%d] = %g on the machine, %g in decomp",
							sz.rows, sz.cols, pc.m, p, i, res.U[i], u[i])
					}
				}
			}
		}
	}
}

func TestMultiProcessorMatchesSerialSolution(t *testing.T) {
	plate := paperPlate(t)
	for _, m := range []int{0, 1, 2, 4} {
		serialU, serialStats := serialSolve(t, plate, m, 1e-6)
		for _, pc := range []struct {
			p     int
			strat mesh.Strategy
		}{{2, mesh.RowStrips}, {5, mesh.ColStrips}} {
			res := runMachine(t, plate, pc.p, m, pc.strat, 1e-6)
			if !res.Converged {
				t.Fatalf("m=%d P=%d: not converged", m, pc.p)
			}
			if di := res.Iterations - serialStats.Iterations; di > 1 || di < -1 {
				t.Fatalf("m=%d P=%d: %d iterations vs serial %d", m, pc.p, res.Iterations, serialStats.Iterations)
			}
			for i := range serialU {
				if d := math.Abs(res.U[i] - serialU[i]); d > 5e-7 {
					t.Fatalf("m=%d P=%d: solution deviates at %d by %g", m, pc.p, i, d)
				}
			}
		}
	}
}

func TestIterationCountIndependentOfProcessorCount(t *testing.T) {
	// Table 3: the same iteration column for 1, 2 and 5 processors.
	plate := paperPlate(t)
	for _, m := range []int{0, 1, 2, 3} {
		i1 := runMachine(t, plate, 1, m, mesh.RowStrips, 1e-6).Iterations
		i2 := runMachine(t, plate, 2, m, mesh.RowStrips, 1e-6).Iterations
		i5 := runMachine(t, plate, 5, m, mesh.ColStrips, 1e-6).Iterations
		if i1 != i2 || i1 != i5 {
			t.Fatalf("m=%d: iterations differ across P: %d/%d/%d", m, i1, i2, i5)
		}
	}
}

func TestSpeedupsBelowIdealAndPositive(t *testing.T) {
	plate := paperPlate(t)
	for _, m := range []int{0, 2} {
		t1 := runMachine(t, plate, 1, m, mesh.RowStrips, 1e-6).SimTime
		t2 := runMachine(t, plate, 2, m, mesh.RowStrips, 1e-6).SimTime
		t5 := runMachine(t, plate, 5, m, mesh.ColStrips, 1e-6).SimTime
		s2, s5 := t1/t2, t1/t5
		if s2 <= 1 || s2 > 2 {
			t.Fatalf("m=%d: 2-processor speedup %g outside (1, 2]", m, s2)
		}
		if s5 <= 1 || s5 > 5 {
			t.Fatalf("m=%d: 5-processor speedup %g outside (1, 5]", m, s5)
		}
		if s5 <= s2 {
			t.Fatalf("m=%d: 5-proc speedup %g not above 2-proc %g", m, s5, s2)
		}
	}
}

func TestPrecondCommDominatesOverhead(t *testing.T) {
	// Paper observation (3): with preconditioning, the preconditioner's
	// border exchanges — not the inner products — dominate the parallel
	// overhead on small P.
	plate := paperPlate(t)
	res := runMachine(t, plate, 2, 3, mesh.RowStrips, 1e-6)
	if res.PrecondCommTime <= res.ReduceWaitTime {
		t.Fatalf("precond comm %g not above reduction wait %g",
			res.PrecondCommTime, res.ReduceWaitTime)
	}
	if res.PrecondExchanges == 0 || res.HaloExchanges == 0 || res.Reductions == 0 {
		t.Fatalf("missing counters: %+v", res)
	}
}

func TestCGSpeedupExceedsPCGSpeedup(t *testing.T) {
	// Paper observation (3), other half: CG (m=0) has less overhead than
	// PCG, so its speedup is higher.
	plate := paperPlate(t)
	speedup := func(m int) float64 {
		t1 := runMachine(t, plate, 1, m, mesh.RowStrips, 1e-6).SimTime
		t2 := runMachine(t, plate, 2, m, mesh.RowStrips, 1e-6).SimTime
		return t1 / t2
	}
	if s0, s3 := speedup(0), speedup(3); s0 <= s3 {
		t.Fatalf("CG speedup %g not above 3-step PCG speedup %g", s0, s3)
	}
}

func TestHardwareTreeBeatsSoftwareRing(t *testing.T) {
	// Jordan's motivation for the sum/max circuit: on the same workload,
	// the O(log P) tree beats the O(P) software reduction.
	plate := paperPlate(t)
	run := func(software bool) float64 {
		tm := DefaultTimeModel()
		tm.SoftwareReduce = software
		cfg := Config{P: 5, Strategy: mesh.ColStrips, M: 0, Tol: 1e-6, MaxIter: 10000, Time: tm}
		mach, err := New(plate, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mach.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.SimTime
	}
	tree, ring := run(false), run(true)
	if tree >= ring {
		t.Fatalf("tree %g not faster than ring %g", tree, ring)
	}
}

func TestParametrizedCoefficientsOnMachine(t *testing.T) {
	// The machine accepts arbitrary α (Algorithm 3's a_{m-s} multipliers);
	// results must match the serial parametrized solver, built here from
	// core's preconditioner and cg's scalar solve.
	plate := paperPlate(t)
	sys := core.System{K: plate.KColored, F: plate.ColoredRHS(), GroupStart: plate.Ordering.GroupStart[:]}
	pc, alphas, _, err := core.BuildPreconditioner(sys, core.Config{M: 3, Coeffs: core.LeastSquaresCoeffs})
	if err != nil {
		t.Fatal(err)
	}
	serialU, serialSt, err := cg.Solve(sys.K, sys.F, pc, cg.Options{Tol: 1e-6, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		P: 5, Strategy: mesh.ColStrips, M: 3,
		Alphas: alphas.Coeffs,
		Tol:    1e-6, MaxIter: 10000, Time: DefaultTimeModel(),
	}
	mach, err := New(plate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if di := res.Iterations - serialSt.Iterations; di > 1 || di < -1 {
		t.Fatalf("iterations %d vs serial %d", res.Iterations, serialSt.Iterations)
	}
	for i := range res.U {
		if d := math.Abs(res.U[i] - serialU[i]); d > 1e-7 {
			t.Fatalf("solution deviates at %d by %g", i, d)
		}
	}
}

func TestMachineDeterministic(t *testing.T) {
	plate := paperPlate(t)
	first := runMachine(t, plate, 5, 2, mesh.ColStrips, 1e-6)
	for trial := 0; trial < 3; trial++ {
		again := runMachine(t, plate, 5, 2, mesh.ColStrips, 1e-6)
		if again.Iterations != first.Iterations || again.SimTime != first.SimTime {
			t.Fatalf("nondeterministic run: %+v vs %+v", again, first)
		}
		for i := range first.U {
			if again.U[i] != first.U[i] {
				t.Fatalf("nondeterministic solution at %d", i)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	plate := paperPlate(t)
	if _, err := New(plate, Config{P: 2, M: 2, Tol: 1e-6, Time: DefaultTimeModel()}); err == nil {
		t.Fatal("missing alphas accepted")
	}
	if _, err := New(plate, Config{P: 2, M: 0, Tol: 0, Time: DefaultTimeModel()}); err == nil {
		t.Fatal("zero tolerance accepted")
	}
	if _, err := New(plate, Config{P: 2, M: 0, Tol: 1e-6, Time: TimeModel{}}); err == nil {
		t.Fatal("invalid time model accepted")
	}
	if _, err := New(plate, Config{P: 99, M: 0, Tol: 1e-6, Time: DefaultTimeModel()}); err == nil {
		t.Fatal("oversized P accepted")
	}
}

func TestTimeModelReduceCost(t *testing.T) {
	tm := DefaultTimeModel()
	if tm.reduceCost(1) != 0 {
		t.Fatal("P=1 reduction should be free")
	}
	// Tree: ceil(log2 P) stages.
	if got, want := tm.reduceCost(2), tm.TreeStage; got != want {
		t.Fatalf("P=2 tree cost %g, want %g", got, want)
	}
	if got, want := tm.reduceCost(5), 3*tm.TreeStage; got != want {
		t.Fatalf("P=5 tree cost %g, want %g", got, want)
	}
	tm.SoftwareReduce = true
	if got, want := tm.reduceCost(5), 4*(tm.MsgStartup+tm.Word); got != want {
		t.Fatalf("P=5 ring cost %g, want %g", got, want)
	}
}
