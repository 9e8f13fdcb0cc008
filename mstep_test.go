package repro_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro"
)

func TestPublicQuickstart(t *testing.T) {
	p, err := repro.NewPlateProblem(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 2*10*9 {
		t.Fatalf("N = %d", p.N())
	}
	res, err := repro.Solve(p, repro.Config{M: 3, Coeffs: repro.LeastSquaresCoeffs, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("not converged")
	}
	nodes, u, v, err := p.NodeDisplacements(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != len(u) || len(u) != len(v) {
		t.Fatal("displacement lengths")
	}
}

func TestPublicSolveBatch(t *testing.T) {
	p, err := repro.NewPlateProblem(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := p.F()
	// Three load cases: the assembled load, halved, and reversed.
	fs := make([][]float64, 3)
	for j, scale := range []float64{1, 0.5, -2} {
		fs[j] = make([]float64, len(base))
		for i, v := range base {
			fs[j][i] = scale * v
		}
	}
	cfg := repro.Config{M: 3, Coeffs: repro.LeastSquaresCoeffs, Tol: 1e-8}
	results, err := repro.SolveBatch(p, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	want, err := repro.Solve(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j, res := range results {
		if !res.Stats.Converged {
			t.Fatalf("case %d not converged", j)
		}
		// Case j's solution must match a scalar solve of the same load
		// case; compare via linearity against the base solve.
		scale := []float64{1, 0.5, -2}[j]
		var maxd float64
		for i := range res.U {
			if d := math.Abs(res.U[i] - scale*want.U[i]); d > maxd {
				maxd = d
			}
		}
		if maxd > 1e-6 {
			t.Fatalf("case %d deviates from scaled scalar solve by %g", j, maxd)
		}
	}

	if _, err := repro.SolveBatch(p, nil, cfg); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := repro.SolveBatch(p, [][]float64{{1, 2}}, cfg); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestPublicGeneralMatrix(t *testing.T) {
	// Small 1-D Laplacian through the public builder.
	n := 20
	b := repro.NewMatrixBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
			b.Add(i-1, i, -1)
		}
	}
	f := make([]float64, n)
	f[n/2] = 1
	p, err := b.Problem(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Solve(p, repro.Config{M: 1, Splitting: repro.JacobiSplitting, RelResidualTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("not converged")
	}
}

func TestPublicBuilderRejectsAsymmetric(t *testing.T) {
	b := repro.NewMatrixBuilder(2)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	b.Add(0, 1, 0.5)
	if _, err := b.Problem([]float64{1, 1}); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	b2 := repro.NewMatrixBuilder(2)
	b2.Add(0, 0, 1)
	b2.Add(1, 1, 1)
	if _, err := b2.Problem([]float64{1}); err == nil {
		t.Fatal("short rhs accepted")
	}
}

func TestPublicConditionEstimate(t *testing.T) {
	p, err := repro.NewPlateProblem(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Solve(p, repro.Config{M: 0, RelResidualTol: 1e-12, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, kappa, err := repro.EstimateCondition(res)
	if err != nil {
		t.Fatal(err)
	}
	if !(0 < lo && lo < hi) || kappa < 1 {
		t.Fatalf("condition estimate (%g, %g, %g)", lo, hi, kappa)
	}
}

func TestPublicCyberSim(t *testing.T) {
	i0, t0, err := repro.SimulateOnCyber(repro.Cyber203(), 12, 0, false, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	i3, t3, err := repro.SimulateOnCyber(repro.Cyber203(), 12, 3, true, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if i3 >= i0 {
		t.Fatalf("3P iterations %d not below CG %d", i3, i0)
	}
	if t0 <= 0 || t3 <= 0 {
		t.Fatal("nonpositive simulated times")
	}
	if repro.Cyber205().VecOp(1000) >= repro.Cyber203().VecOp(1000) {
		t.Fatal("205 should be faster")
	}
}

func TestPublicFEMachine(t *testing.T) {
	p, err := repro.NewPlateProblem(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := repro.Solve(p, repro.Config{M: 0, Tol: 1e-6, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunOnFEMachine(p, repro.FEMachineConfig{
		P: 5, Strategy: repro.ColStrips, M: 0,
		Tol: 1e-6, MaxIter: 10000, Time: repro.DefaultFEMachineTime(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != serial.Stats.Iterations {
		t.Fatalf("machine %d iterations vs serial %d", res.Iterations, serial.Stats.Iterations)
	}
	for i := range res.U {
		if math.Abs(res.U[i]-serial.U[i]) > 5e-7 {
			t.Fatalf("solution deviates at %d", i)
		}
	}
}

func TestPublicFEMachineRejectsGeneralProblem(t *testing.T) {
	b := repro.NewMatrixBuilder(4)
	for i := 0; i < 4; i++ {
		b.Add(i, i, 2)
	}
	p, err := b.Problem(make([]float64, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repro.RunOnFEMachine(p, repro.FEMachineConfig{P: 1, Tol: 1e-6, Time: repro.DefaultFEMachineTime()}); err == nil {
		t.Fatal("general problem accepted by the machine")
	}
	if _, _, _, err := p.NodeDisplacements(repro.Result{}); err == nil {
		t.Fatal("NodeDisplacements on general problem accepted")
	}
}

func TestPublicPlateRejectsBadInput(t *testing.T) {
	if _, err := repro.NewPlateProblem(1, 5); err == nil {
		t.Fatal("degenerate plate accepted")
	}
	// Invalid material: negative Young's modulus.
	if _, err := repro.NewPlateProblemWithMaterial(5, 5, repro.Material{E: -1, Nu: 0.3, T: 1}, 1); err == nil {
		t.Fatal("negative Young's modulus accepted")
	}
	// Poisson ratio at the incompressible limit.
	if _, err := repro.NewPlateProblemWithMaterial(5, 5, repro.Material{E: 1, Nu: 0.5, T: 1}, 1); err == nil {
		t.Fatal("ν = 0.5 accepted")
	}
}

func TestPublicSolveRejectsBadOmega(t *testing.T) {
	p, err := repro.NewPlateProblem(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, omega := range []float64{-0.5, 2, 3} {
		if _, err := repro.Solve(p, repro.Config{M: 2, Omega: omega, Tol: 1e-6}); err == nil {
			t.Fatalf("ω = %g accepted", omega)
		}
	}
}

func TestPublicEstimateConditionNeedsIterations(t *testing.T) {
	if _, _, _, err := repro.EstimateCondition(repro.Result{}); err == nil {
		t.Fatal("condition estimate from an empty run accepted")
	}
}

func TestPublicService(t *testing.T) {
	svc := repro.NewService(repro.ServiceConfig{Workers: 2})
	defer svc.Close()

	req := repro.SolveRequest{
		Plate:  &repro.PlateSpec{Rows: 10, Cols: 10},
		Solver: repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-7},
	}
	cold, err := svc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Result.Converged || cold.CacheHit {
		t.Fatalf("cold solve: %+v", cold)
	}
	warm, err := svc.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second identical solve missed the cache")
	}

	// The service solution matches the library path end to end.
	p, err := repro.NewPlateProblem(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Solve(p, repro.Config{M: 3, Coeffs: repro.LeastSquaresCoeffs, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.U {
		if math.Abs(res.U[i]-warm.Result.U[i]) > 1e-9 {
			t.Fatalf("service solution deviates at %d", i)
		}
	}

	if st := svc.Stats(); st.CacheHits < 1 || st.JobsDone != 2 {
		t.Fatalf("service stats: %+v", st)
	}
}

// TestOneRHSResultOwnsItsCoefficients: a finished one-RHS result keeps its
// recurrence coefficients. The next job on the same worker reuses the
// worker's workspace; it must not rewrite the first result's α, or
// EstimateCondition on the first result would read the second problem.
func TestOneRHSResultOwnsItsCoefficients(t *testing.T) {
	l := repro.NewLocal(repro.LocalConfig{Workers: 1, WorkerBudget: 1})
	defer l.Close()
	solve := func(n int) repro.JobResult {
		t.Helper()
		res, err := l.Solve(context.Background(), repro.Request{
			Plate:  &repro.PlateSpec{Rows: n, Cols: n},
			Solver: repro.SolverSpec{M: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.CGStats == nil || len(res.CGStats.CGAlphas) == 0 {
			t.Fatalf("%d² plate: no recurrence coefficients", n)
		}
		return res
	}
	first := solve(10)
	alphas := slices.Clone(first.CGStats.CGAlphas)
	_, _, kappa, err := repro.EstimateCondition(repro.Result{Stats: *first.CGStats})
	if err != nil {
		t.Fatal(err)
	}
	solve(14)
	if !slices.Equal(first.CGStats.CGAlphas, alphas) {
		t.Fatal("a later solve on the worker rewrote the first result's α")
	}
	if _, _, again, err := repro.EstimateCondition(repro.Result{Stats: *first.CGStats}); err != nil || again != kappa {
		t.Fatalf("κ of the first result moved from %v to %v (err %v)", kappa, again, err)
	}
}

// TestBatchConditionMatchesSolve: every column of a batch records its
// recurrence coefficients, so the condition estimate of a batch result is
// the estimate of the same right-hand side solved alone, bit for bit — on
// the column layout (s = 2) and on panels (s = 8).
func TestBatchConditionMatchesSolve(t *testing.T) {
	p, err := repro.NewPlateProblem(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := repro.Config{M: 2}
	single, err := repro.Solve(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, want, err := repro.EstimateCondition(single)
	if err != nil {
		t.Fatal(err)
	}
	base := p.F()
	for _, s := range []int{2, 8} {
		fs := make([][]float64, s)
		fs[0] = base
		for j := 1; j < s; j++ {
			fs[j] = make([]float64, len(base))
			for i, v := range base {
				fs[j][i] = v * (1 + 0.1*float64(j*i%7))
			}
		}
		results, err := repro.SolveBatch(p, fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j, res := range results {
			_, _, kappa, err := repro.EstimateCondition(res)
			if err != nil {
				t.Fatalf("s=%d rhs %d: %v", s, j, err)
			}
			if j == 0 && kappa != want {
				t.Fatalf("s=%d: batch κ %v != Solve κ %v", s, kappa, want)
			}
			alone, err := repro.SolveBatch(p, fs[j:j+1], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, k1, _ := repro.EstimateCondition(alone[0]); kappa != k1 {
				t.Fatalf("s=%d rhs %d: batch κ %v != one-column κ %v", s, j, kappa, k1)
			}
		}
	}
}
