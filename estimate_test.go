package repro_test

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro"
)

// benchmarkPlateIterations lists, for every plate the repository benchmark
// solves with least-squares coefficients (m = 3, multicolor SSOR at ω = 1),
// the iterations each load case takes. The counts were recorded with α
// fitted on an estimated spectral interval of P⁻¹K (PCG with the one-step
// preconditioner run to relative residual 1e-6). These solves now fit on
// the fixed SSOR bound [1e-9, 1.02] and run no estimate
// (core.IntervalFor); the bound must leave every count unchanged.
var benchmarkPlateIterations = map[string][]int{
	"cold 10x10 E=0.5": {16},
	"cold 10x10 E=1":   {16},
	"cold 10x10 E=2":   {15},
	"cold 10x16 E=0.5": {21},
	"cold 10x16 E=1":   {20},
	"cold 10x16 E=2":   {20},
	"cold 10x22 E=0.5": {26},
	"cold 10x22 E=1":   {26},
	"cold 10x22 E=2":   {25},
	"cold 16x10 E=0.5": {21},
	"cold 16x10 E=1":   {21},
	"cold 16x10 E=2":   {20},
	"cold 16x16 E=0.5": {25},
	"cold 16x16 E=1":   {24},
	"cold 16x16 E=2":   {24},
	"cold 16x22 E=0.5": {29},
	"cold 16x22 E=1":   {29},
	"cold 16x22 E=2":   {29},
	"cold 22x10 E=0.5": {26},
	"cold 22x10 E=1":   {26},
	"cold 22x10 E=2":   {25},
	"cold 22x16 E=0.5": {30},
	"cold 22x16 E=1":   {30},
	"cold 22x16 E=2":   {29},
	"cold 22x22 E=0.5": {33},
	"cold 22x22 E=1":   {33},
	"cold 22x22 E=2":   {33},
	"warm-up 9x9":      {14},
	"warm-up 23x23":    {35},
	"warm-up 24x24":    {36},
	"warm 40x40":       {55, 56, 57},
	"warm 52x52":       {71, 72, 73},
	"warm 64x64":       {87, 89, 90},
}

// TestBenchmarkPlateIterationCounts solves plate-cold's nine shapes at
// Young's modulus 0.5, 1 and 2 (tol 1e-6), its 9², 23² and 24² warm-up
// plates, and plate-batch-warm's 40², 52² and 64² plates at tractions 0.5,
// 1 and 2 (tol 1e-5), and checks each case's iteration count.
func TestBenchmarkPlateIterationCounts(t *testing.T) {
	l := repro.NewLocal(repro.LocalConfig{Workers: 1})
	defer l.Close()
	cold := repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-6, Tuning: "off"}
	warm := repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-5, Tuning: "off"}
	type run struct {
		name string
		req  repro.Request
	}
	var runs []run
	sides := []int{10, 16, 22}
	for _, r := range sides {
		for _, c := range sides {
			for _, e := range []float64{0.5, 1, 2} {
				runs = append(runs, run{fmt.Sprintf("cold %dx%d E=%g", r, c, e), repro.Request{
					Plate:  &repro.PlateSpec{Rows: r, Cols: c, E: e, Nu: 0.3, T: 1},
					Solver: cold, OmitSolution: true,
				}})
			}
		}
	}
	for _, sz := range []int{9, 23, 24} {
		runs = append(runs, run{fmt.Sprintf("warm-up %dx%d", sz, sz), repro.Request{
			Plate: &repro.PlateSpec{Rows: sz, Cols: sz}, Solver: cold, OmitSolution: true,
		}})
	}
	for _, sz := range []int{40, 52, 64} {
		runs = append(runs, run{fmt.Sprintf("warm %dx%d", sz, sz), repro.Request{
			Plate:  &repro.PlateSpec{Rows: sz, Cols: sz, Tractions: []float64{0.5, 1, 2}},
			Solver: warm, OmitSolution: true,
		}})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, r := range runs {
		res, err := l.Solve(ctx, r.req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got := []int{res.Iterations}
		if len(res.Cases) > 0 {
			got = got[:0]
			for _, c := range res.Cases {
				got = append(got, c.Iterations)
			}
		}
		want, ok := benchmarkPlateIterations[r.name]
		if !ok {
			t.Errorf("%s: no pinned count (took %v)", r.name, got)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: iterations %v, want %v", r.name, got, want)
		}
	}
}

// EstimateCondition on a plain-CG run of a matrix whose eigenvalues are
// large next to their spread returns instead of bisecting below one ulp
// forever.
func TestEstimateConditionLargeShift(t *testing.T) {
	b := repro.NewMatrixBuilder(2)
	b.Add(0, 0, 1e6)
	b.Add(0, 1, 1)
	b.Add(1, 0, 1)
	b.Add(1, 1, 1e6+1)
	p, err := b.Problem([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Solve(p, repro.Config{M: 0, RelResidualTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var lo, hi float64
	go func() {
		var err error
		lo, hi, _, err = repro.EstimateCondition(res)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EstimateCondition did not return within 5s")
	}
	// The Ritz values of a two-step run are the eigenvalues,
	// 1e6 + (1 ∓ √5)/2.
	if math.Abs(lo-(1e6-0.618034)) > 1e-5 || math.Abs(hi-(1e6+1.618034)) > 1e-5 {
		t.Fatalf("λ = [%.9g, %.9g], want 1e6 + [−0.618034, 1.618034]", lo, hi)
	}
}

// A Problem carries no interval from one solve to the next: least squares
// (fitted on the SSOR bound), then Chebyshev (estimated), then least
// squares again on one problem give each solve the iterations and α of the
// same config on a fresh problem. Were the bound carried over, the
// Chebyshev solve would fit on [1e-9, 1.02] and take several times the
// iterations.
func TestSharedProblemMatchesFreshAcrossCoefficients(t *testing.T) {
	for _, m := range []int{3, 4} {
		shared, err := repro.NewPlateProblem(16, 16)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []repro.Config{
			{M: m, Coeffs: repro.LeastSquaresCoeffs, Tol: 1e-6},
			{M: m, Coeffs: repro.ChebyshevCoeffs, Tol: 1e-6},
			{M: m, Coeffs: repro.LeastSquaresCoeffs, Tol: 1e-6},
		} {
			got, err := repro.Solve(shared, cfg)
			if err != nil {
				t.Fatalf("m=%d %v: %v", m, cfg.Coeffs, err)
			}
			fresh, err := repro.NewPlateProblem(16, 16)
			if err != nil {
				t.Fatal(err)
			}
			want, err := repro.Solve(fresh, cfg)
			if err != nil {
				t.Fatalf("m=%d %v, fresh problem: %v", m, cfg.Coeffs, err)
			}
			if got.Stats.Iterations != want.Stats.Iterations || fmt.Sprint(got.Alphas.Coeffs) != fmt.Sprint(want.Alphas.Coeffs) {
				t.Errorf("m=%d %v: %d iterations, α %v on the shared problem; %d, α %v on a fresh one",
					m, cfg.Coeffs, got.Stats.Iterations, got.Alphas.Coeffs, want.Stats.Iterations, want.Alphas.Coeffs)
			}
		}
	}
}

// Past m = 10 the least-squares fit's rounding noise depends on the
// interval's lower end, so it keeps the spectral estimate: at m = 12 the
// fit on the bound is not positive on most plates, while the fit on the
// estimate solves all of these.
func TestLeastSquaresPastStableMEstimates(t *testing.T) {
	for _, n := range []int{10, 16, 22, 40} {
		p, err := repro.NewPlateProblem(n, n)
		if err != nil {
			t.Fatal(err)
		}
		res, err := repro.Solve(p, repro.Config{M: 12, Coeffs: repro.LeastSquaresCoeffs, Tol: 1e-6})
		if err != nil {
			t.Errorf("%d² plate, m = 12: %v", n, err)
			continue
		}
		if !res.Stats.Converged || res.Interval.Lo <= 1e-9 {
			t.Errorf("%d² plate, m = 12: converged %v on [%g, %g], want a converged solve on an estimate",
				n, res.Stats.Converged, res.Interval.Lo, res.Interval.Hi)
		}
	}
}
