package cg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fem"
	"repro/internal/la"
	"repro/internal/model"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
)

func residualInf(k *sparse.CSR, u, f []float64) float64 {
	r := make([]float64, k.Rows)
	k.MulVecTo(r, u)
	vec.Sub(r, f, r)
	return vec.NormInf(r)
}

func TestCGSolvesSmallSystem(t *testing.T) {
	k := model.Laplacian1D(10)
	f := make([]float64, 10)
	f[4] = 1
	u, st, err := Solve(k, f, nil, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("not converged")
	}
	if res := residualInf(k, u, f); res > 1e-8 {
		t.Fatalf("residual %g", res)
	}
}

func TestCGExactInAtMostNSteps(t *testing.T) {
	// In exact arithmetic CG terminates within n iterations; in floating
	// point on a tiny well-conditioned system it does too.
	k := model.Laplacian1D(8)
	f := model.RandomVec(rand.New(rand.NewSource(1)), 8)
	_, st, err := Solve(k, f, nil, Options{RelResidualTol: 1e-12, MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 8+1 {
		t.Fatalf("CG took %d iterations on an 8×8 system", st.Iterations)
	}
}

// Property: PCG solves random SPD systems to the requested residual with
// every preconditioner.
func TestPCGSolvesRandomSPD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		k := model.RandomSPD(rng, n, 3)
		want := model.RandomVec(rng, n)
		b := make([]float64, n)
		k.MulVecTo(b, want)

		j, err := splitting.NewJacobi(k)
		if err != nil {
			return false
		}
		s, err := splitting.NewNaturalSSOR(k, 1)
		if err != nil {
			return false
		}
		pj, _ := precond.NewMStep(j, poly.Ones(1))
		ps, _ := precond.NewMStep(s, poly.Ones(2))
		for _, m := range []precond.Preconditioner{precond.Identity{}, pj, ps} {
			u, st, err := Solve(k, b, m, Options{RelResidualTol: 1e-10, MaxIter: 20 * n})
			if err != nil || !st.Converged {
				return false
			}
			for i := range want {
				if math.Abs(u[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPCGIterationCountsDropWithPreconditioning(t *testing.T) {
	// The paper's core premise: m-step SSOR PCG needs far fewer iterations
	// than CG, and iterations decrease as m grows.
	plate, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := plate.KColored
	f := plate.ColoredRHS()
	mc, err := splitting.NewSixColorSSOR(k, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	iters := func(m int) int {
		var p precond.Preconditioner = precond.Identity{}
		if m > 0 {
			p, _ = precond.NewMStep(mc, poly.Ones(m))
		}
		_, st, err := Solve(k, f, p, Options{Tol: 1e-8, MaxIter: 4000})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		return st.Iterations
	}
	n0, n1, n3 := iters(0), iters(1), iters(3)
	if n1 >= n0 {
		t.Fatalf("1-step SSOR PCG (%d iters) not better than CG (%d)", n1, n0)
	}
	if n3 >= n1 {
		t.Fatalf("3-step (%d iters) not better than 1-step (%d)", n3, n1)
	}
}

func TestPCGAllPreconditionersAgreeOnSolution(t *testing.T) {
	plate, err := fem.NewPlate(5, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := plate.KColored
	f := plate.ColoredRHS()
	mc, _ := splitting.NewSixColorSSOR(k, plate.Ordering.GroupStart[:])
	ref, _, err := Solve(k, f, nil, Options{RelResidualTol: 1e-12, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= 4; m++ {
		p, _ := precond.NewMStep(mc, poly.Ones(m))
		u, _, err := Solve(k, f, p, Options{RelResidualTol: 1e-12, MaxIter: 5000})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		for i := range u {
			if math.Abs(u[i]-ref[i]) > 1e-7*(1+math.Abs(ref[i])) {
				t.Fatalf("m=%d solution deviates at %d: %g vs %g", m, i, u[i], ref[i])
			}
		}
	}
}

func TestUDiffStoppingMatchesPaperDefinition(t *testing.T) {
	// FinalUDiff must equal ‖u^{k+1}−u^k‖_∞ of the last step: run twice
	// with MaxIter k and k+1 and compare.
	k := model.Laplacian1D(20)
	f := model.RandomVec(rand.New(rand.NewSource(2)), 20)
	u1, _, _ := Solve(k, f, nil, Options{Tol: 1e-30, MaxIter: 5})
	u2, st2, _ := Solve(k, f, nil, Options{Tol: 1e-30, MaxIter: 6})
	if math.Abs(vec.MaxAbsDiff(u2, u1)-st2.FinalUDiff) > 1e-12 {
		t.Fatalf("FinalUDiff %g != actual diff %g", st2.FinalUDiff, vec.MaxAbsDiff(u2, u1))
	}
}

func TestZeroRHSConvergesImmediately(t *testing.T) {
	k := model.Laplacian1D(5)
	u, st, err := Solve(k, make([]float64, 5), nil, Options{Tol: 1e-10})
	if err != nil || !st.Converged {
		t.Fatalf("zero rhs: err=%v converged=%v", err, st.Converged)
	}
	if st.Iterations != 0 {
		t.Fatalf("zero rhs took %d iterations", st.Iterations)
	}
	if vec.NormInf(u) != 0 {
		t.Fatal("zero rhs gave nonzero solution")
	}
}

func TestMaxIterationsError(t *testing.T) {
	k := model.Poisson2D(10, 10)
	f := make([]float64, 100)
	f[0] = 1
	_, st, err := Solve(k, f, nil, Options{Tol: 1e-14, MaxIter: 3})
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("expected ErrMaxIterations, got %v", err)
	}
	if st.Iterations != 3 {
		t.Fatalf("iterations = %d, want 3", st.Iterations)
	}
}

func TestIndefiniteMatrixDetected(t *testing.T) {
	// diag(1, -1) is indefinite: CG must report breakdown.
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1)
	_, _, err := Solve(c.ToCSR(), []float64{0, 1}, nil, Options{Tol: 1e-10})
	if !errors.Is(err, ErrBreakdownMatrix) {
		t.Fatalf("expected ErrBreakdownMatrix, got %v", err)
	}
}

func TestIndefinitePreconditionerDetected(t *testing.T) {
	k := model.Laplacian1D(6)
	f := []float64{1, 0, 0, 0, 0, 0}
	_, _, err := Solve(k, f, negDefinite{}, Options{Tol: 1e-10})
	if !errors.Is(err, ErrBreakdownPrecond) {
		t.Fatalf("expected ErrBreakdownPrecond, got %v", err)
	}
}

func TestOptionValidation(t *testing.T) {
	k := model.Laplacian1D(4)
	f := make([]float64, 4)
	if _, _, err := Solve(k, f, nil, Options{}); err == nil {
		t.Fatal("no stopping test accepted")
	}
	if _, _, err := Solve(k, f[:2], nil, Options{Tol: 1e-8}); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
	rect := sparse.NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, _, err := Solve(rect.ToCSR(), f[:2], nil, Options{Tol: 1e-8}); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
}

func TestHistoryRecorded(t *testing.T) {
	k := model.Laplacian1D(15)
	f := make([]float64, 15)
	f[7] = 1
	_, st, err := Solve(k, f, nil, Options{Tol: 1e-10, History: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.UDiffHistory) != st.Iterations || len(st.ResidualHistory) != st.Iterations {
		t.Fatalf("history lengths %d/%d vs %d iterations",
			len(st.UDiffHistory), len(st.ResidualHistory), st.Iterations)
	}
	// Last history entries match the finals.
	if st.UDiffHistory[st.Iterations-1] != st.FinalUDiff {
		t.Fatal("UDiff history inconsistent")
	}
}

func TestInnerProductCountMatchesAlgorithm1(t *testing.T) {
	// Algorithm 1 costs two inner products per iteration (α and β) plus
	// one at setup; the final iteration skips β.
	k := model.Laplacian1D(20)
	f := make([]float64, 20)
	f[3] = 1
	_, st, err := Solve(k, f, nil, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 2*st.Iterations
	if st.Converged {
		want-- // β not computed on the converging iteration
	}
	if st.InnerProducts != want {
		t.Fatalf("inner products = %d, want %d (iters %d)", st.InnerProducts, want, st.Iterations)
	}
}

func TestLanczosTridiagonalEstimatesSpectrum(t *testing.T) {
	// For the 1-D Laplacian the spectrum is known; after enough CG steps
	// the Lanczos tridiagonal's Rayleigh range must sit inside (0, 4).
	n := 40
	k := model.Laplacian1D(n)
	f := model.RandomVec(rand.New(rand.NewSource(5)), n)
	_, st, err := Solve(k, f, nil, Options{RelResidualTol: 1e-12, MaxIter: 10 * n})
	if err != nil {
		t.Fatal(err)
	}
	diag, off := LanczosTridiagonal(st)
	if len(diag) == 0 || len(off) != len(diag)-1 {
		t.Fatalf("tridiagonal sizes: %d diag, %d offdiag", len(diag), len(off))
	}
	// The diagonal entries are Rayleigh-quotient-like and must be strictly
	// positive for an SPD operator; the trace lies within n·(0, 4).
	var trace float64
	for i, d := range diag {
		if d <= 0 {
			t.Fatalf("Lanczos diagonal %d = %g not positive", i, d)
		}
		trace += d
	}
	if trace <= 0 || trace >= 4*float64(len(diag)) {
		t.Fatalf("Lanczos trace %g outside (0, %d)", trace, 4*len(diag))
	}
	// Full eigenvalue validation (Sturm bisection) lives in internal/eigen.
}

func TestLanczosEmptyStats(t *testing.T) {
	d, o := LanczosTridiagonal(Stats{})
	if d != nil || o != nil {
		t.Fatal("empty stats should give nil tridiagonal")
	}
}

// negDefinite is a negative definite preconditioner for failure injection.
type negDefinite struct{}

func (negDefinite) Apply(z, r []float64) {
	for i := range r {
		z[i] = -r[i]
	}
}
func (negDefinite) Name() string { return "neg" }

var _ = la.NewMatrix // reserved for future dense cross-checks
