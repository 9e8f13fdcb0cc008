package core_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/engine"
	"repro/internal/fem"
	"repro/internal/model"
	"repro/internal/vec"
)

// solveOnce runs cfg on sys through the engine's one-shot executor and
// returns the result of its one right-hand side.
func solveOnce(sys core.System, cfg core.Config) (core.Result, error) {
	res, err := engine.SolveOnce(engine.Prebuilt{Sys: sys, Config: cfg})
	if len(res) == 0 {
		return core.Result{}, err
	}
	return res[0], err
}

func plateSystem(t *testing.T, rows, cols int) (core.System, *fem.Plate) {
	t.Helper()
	sys, plate, err := core.PlateSystem(rows, cols, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sys, plate
}

func TestSolvePlainCG(t *testing.T) {
	sys, _ := plateSystem(t, 6, 6)
	res, err := solveOnce(sys, core.Config{M: 0, Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("CG did not converge")
	}
	if res.Precond != "none" {
		t.Fatalf("precond = %q", res.Precond)
	}
}

func TestSolveAllVariantsAgree(t *testing.T) {
	sys, _ := plateSystem(t, 6, 6)
	ref, err := solveOnce(sys, core.Config{M: 0, RelResidualTol: 1e-12, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []core.Config{
		{M: 1, Splitting: core.SSORMulticolor},
		{M: 3, Splitting: core.SSORMulticolor},
		{M: 3, Splitting: core.SSORMulticolor, Coeffs: core.LeastSquaresCoeffs},
		{M: 3, Splitting: core.SSORMulticolor, Coeffs: core.ChebyshevCoeffs},
		{M: 2, Splitting: core.SSORNatural},
		{M: 1, Splitting: core.JacobiSplitting},
		{M: 3, Splitting: core.JacobiSplitting, Coeffs: core.ChebyshevCoeffs},
	}
	for _, cfg := range cfgs {
		cfg.RelResidualTol = 1e-12
		cfg.MaxIter = 10000
		res, err := solveOnce(sys, cfg)
		if err != nil {
			t.Fatalf("%v/%v m=%d: %v", cfg.Splitting, cfg.Coeffs, cfg.M, err)
		}
		for i := range res.U {
			if math.Abs(res.U[i]-ref.U[i]) > 1e-6*(1+math.Abs(ref.U[i])) {
				t.Fatalf("%v/%v m=%d: solution deviates at %d", cfg.Splitting, cfg.Coeffs, cfg.M, i)
			}
		}
	}
}

func TestParametrizedBeatsUnparametrized(t *testing.T) {
	// Paper observation (1) of Table 2: the parametrized preconditioner
	// takes fewer iterations than the unparametrized one at the same m.
	sys, _ := plateSystem(t, 10, 10)
	for _, m := range []int{3, 4, 5} {
		plain, err := solveOnce(sys, core.Config{M: m, Tol: 1e-8, MaxIter: 5000})
		if err != nil {
			t.Fatal(err)
		}
		param, err := solveOnce(sys, core.Config{M: m, Coeffs: core.LeastSquaresCoeffs, Tol: 1e-8, MaxIter: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if param.Stats.Iterations > plain.Stats.Iterations {
			t.Fatalf("m=%d: parametrized %d iters > unparametrized %d",
				m, param.Stats.Iterations, plain.Stats.Iterations)
		}
	}
}

func TestIterationsDecreaseWithM(t *testing.T) {
	sys, _ := plateSystem(t, 10, 10)
	prev := 1 << 30
	for _, m := range []int{0, 1, 2, 4, 6} {
		res, err := solveOnce(sys, core.Config{M: m, Coeffs: core.LeastSquaresCoeffs, Tol: 1e-8, MaxIter: 5000})
		if m == 0 {
			res, err = solveOnce(sys, core.Config{M: 0, Tol: 1e-8, MaxIter: 5000})
		}
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Stats.Iterations >= prev {
			t.Fatalf("m=%d: %d iterations did not improve on %d", m, res.Stats.Iterations, prev)
		}
		prev = res.Stats.Iterations
	}
}

func TestSolutionPhysicallySensible(t *testing.T) {
	// A plate pulled rightward from a clamped left edge stretches: every
	// u-displacement is nonnegative and grows toward the loaded edge.
	sys, plate := plateSystem(t, 6, 6)
	res, err := solveOnce(sys, core.Config{M: 2, Coeffs: core.LeastSquaresCoeffs, RelResidualTol: 1e-12, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	u := plate.UncolorSolution(res.U)
	for k, id := range plate.Free {
		if u[2*k] < -1e-9 {
			t.Fatalf("node %d pulled left: u = %g", id, u[2*k])
		}
	}
	// Mean u on the right edge exceeds mean u on the leftmost free column.
	meanAt := func(col int) float64 {
		var s float64
		var c int
		for k, id := range plate.Free {
			_, j := plate.Grid.NodeRC(id)
			if j == col {
				s += u[2*k]
				c++
			}
		}
		return s / float64(c)
	}
	if meanAt(plate.Grid.Cols-1) <= meanAt(1) {
		t.Fatal("displacement does not grow toward the loaded edge")
	}
}

func TestBuildPreconditionerErrors(t *testing.T) {
	sys, _ := plateSystem(t, 4, 4)
	noGroups := core.System{K: sys.K, F: sys.F}
	if _, _, _, err := core.BuildPreconditioner(noGroups, core.Config{M: 1, Splitting: core.SSORMulticolor}); err == nil {
		t.Fatal("multicolor without groups accepted")
	}
	if _, _, _, err := core.BuildPreconditioner(sys, core.Config{M: -1}); err == nil {
		t.Fatal("negative m accepted")
	}
	if _, _, _, err := core.BuildPreconditioner(sys, core.Config{M: 1, Splitting: core.SplittingKind(99)}); err == nil {
		t.Fatal("unknown splitting accepted")
	}
	if _, _, _, err := core.BuildPreconditioner(sys, core.Config{M: 1, Coeffs: core.CoeffKind(99)}); err == nil {
		t.Fatal("unknown coefficient kind accepted")
	}
	bad := eigen.Interval{Lo: 1, Hi: 0.5}
	if _, _, _, err := core.BuildPreconditioner(sys, core.Config{M: 2, Coeffs: core.LeastSquaresCoeffs, Interval: &bad}); err == nil {
		t.Fatal("invalid interval accepted")
	}
}

func TestSolveMalformedSystem(t *testing.T) {
	if _, err := solveOnce(core.System{}, core.Config{M: 0, Tol: 1e-6}); err == nil {
		t.Fatal("nil system accepted")
	}
	k := model.Laplacian1D(4)
	if _, err := solveOnce(core.System{K: k, F: make([]float64, 3)}, core.Config{M: 0, Tol: 1e-6}); err == nil {
		t.Fatal("mismatched rhs accepted")
	}
}

func TestGeneralMatrixViaJacobiAndNaturalSSOR(t *testing.T) {
	// core must serve matrices that are not plate systems.
	k := model.Poisson2D(12, 12)
	f := make([]float64, k.Rows)
	f[50] = 1
	sys := core.System{K: k, F: f}
	for _, cfg := range []core.Config{
		{M: 1, Splitting: core.JacobiSplitting},
		{M: 2, Splitting: core.SSORNatural, Omega: 1.2},
		{M: 3, Splitting: core.JacobiSplitting, Coeffs: core.ChebyshevCoeffs},
	} {
		cfg.RelResidualTol = 1e-10
		cfg.MaxIter = 5000
		res, err := solveOnce(sys, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		r := make([]float64, len(res.U))
		k.MulVecTo(r, res.U)
		vec.Sub(r, f, r)
		if vec.NormInf(r) > 1e-7 {
			t.Fatalf("%+v: residual %g", cfg, vec.NormInf(r))
		}
	}
}

func TestKindStrings(t *testing.T) {
	if core.SSORMulticolor.String() != "ssor-multicolor" || core.JacobiSplitting.String() != "jacobi" {
		t.Fatal("splitting names")
	}
	if core.SplittingKind(9).String() != "?" || core.CoeffKind(9).String() != "?" {
		t.Fatal("unknown kind names")
	}
	if core.LeastSquaresCoeffs.String() != "least-squares" || core.ChebyshevCoeffs.String() != "chebyshev" || core.Unparametrized.String() != "ones" {
		t.Fatal("coefficient names")
	}
}

func TestSolveReportsPrecondName(t *testing.T) {
	sys, _ := plateSystem(t, 5, 5)
	res, err := solveOnce(sys, core.Config{M: 2, Coeffs: core.LeastSquaresCoeffs, Tol: 1e-7, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Precond, "2-step") || !strings.Contains(res.Precond, "least-squares") {
		t.Fatalf("precond name %q", res.Precond)
	}
	if res.Alphas.M() != 2 {
		t.Fatalf("alphas m = %d", res.Alphas.M())
	}
	if res.Interval.Lo <= 0 {
		t.Fatal("interval not reported")
	}
}

func TestWeightedLSCoeffsSolve(t *testing.T) {
	sys, _ := plateSystem(t, 10, 10)
	res, err := solveOnce(sys, core.Config{M: 3, Coeffs: core.WeightedLSCoeffs, Tol: 1e-7, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("weighted LS did not converge")
	}
	plain, err := solveOnce(sys, core.Config{M: 3, Tol: 1e-7, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iterations > plain.Stats.Iterations {
		t.Fatalf("weighted LS (%d iters) worse than unparametrized (%d)",
			res.Stats.Iterations, plain.Stats.Iterations)
	}
	if core.WeightedLSCoeffs.String() != "least-squares(w=λ)" {
		t.Fatalf("name %q", core.WeightedLSCoeffs.String())
	}
}

// Convergence theory: PCG iterations to fixed relative residual are
// bounded by ~ ½·√κ·ln(2/ε). Verify the measured counts respect it for
// several preconditioners on the plate problem.
func TestIterationsRespectSqrtKappaBound(t *testing.T) {
	sys, _ := plateSystem(t, 12, 12)
	eps := 1e-8
	for _, m := range []int{0, 1, 3} {
		res, err := solveOnce(sys, core.Config{M: m, RelResidualTol: eps, MaxIter: 100000})
		if err != nil {
			t.Fatal(err)
		}
		_, _, kappa, err := eigen.CondFromCGStats(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		// Energy-norm theory with slack for the residual-norm test.
		bound := math.Sqrt(kappa)*math.Log(2/eps)/2 + 10
		if float64(res.Stats.Iterations) > bound {
			t.Fatalf("m=%d: %d iterations exceed √κ bound %.0f (κ=%.0f)",
				m, res.Stats.Iterations, bound, kappa)
		}
	}
}
