package stationary

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/model"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
)

func residualInf(k *sparse.CSR, x, f []float64) float64 {
	r := make([]float64, len(f))
	k.MulVecTo(r, x)
	vec.Sub(r, f, r)
	return vec.NormInf(r)
}

func TestJacobiSolverConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := model.RandomSPD(rng, 30, 3) // strongly diagonally dominant
	f := model.RandomVec(rng, 30)
	j, _ := splitting.NewJacobi(k)
	x, st, err := Solve(j, f, Options{Tol: 1e-12, MaxIter: 5000})
	if err != nil || !st.Converged {
		t.Fatalf("err=%v converged=%v", err, st.Converged)
	}
	if res := residualInf(k, x, f); res > 1e-9 {
		t.Fatalf("residual %g", res)
	}
}

func TestSSORSolverOnPlate(t *testing.T) {
	plate, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(plate.KColored, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	f := plate.ColoredRHS()
	x, st, err := Solve(mc, f, Options{Tol: 1e-10, MaxIter: 100000, History: true})
	if err != nil || !st.Converged {
		t.Fatalf("err=%v converged=%v", err, st.Converged)
	}
	if res := residualInf(plate.KColored, x, f); res > 1e-7 {
		t.Fatalf("residual %g", res)
	}
	if len(st.History) != st.Sweeps {
		t.Fatal("history length")
	}
	// ‖Δx‖∞ decreases asymptotically (geometric convergence).
	h := st.History
	if h[len(h)-1] >= h[len(h)/2] {
		t.Fatal("no asymptotic decrease")
	}
}

func TestSolveOptionValidation(t *testing.T) {
	k := model.Laplacian1D(5)
	j, _ := splitting.NewJacobi(k)
	f := make([]float64, 5)
	if _, _, err := Solve(j, f[:3], Options{Tol: 1e-8}); err == nil {
		t.Fatal("short rhs accepted")
	}
	if _, _, err := Solve(j, f, Options{}); err == nil {
		t.Fatal("zero tol accepted")
	}
	if _, _, err := Solve(j, f, Options{Tol: 1e-8, X0: f[:2]}); err == nil {
		t.Fatal("short x0 accepted")
	}
}

func TestSolveMaxIterations(t *testing.T) {
	k := model.Poisson2D(8, 8)
	j, _ := splitting.NewJacobi(k)
	f := make([]float64, 64)
	f[0] = 1
	_, st, err := Solve(j, f, Options{Tol: 1e-14, MaxIter: 3})
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("expected ErrMaxIterations, got %v", err)
	}
	if st.Sweeps != 3 {
		t.Fatalf("sweeps = %d", st.Sweeps)
	}
}

func TestSolveRespectsX0(t *testing.T) {
	k := model.Laplacian1D(10)
	ssor, _ := splitting.NewNaturalSSOR(k, 1)
	want := model.RandomVec(rand.New(rand.NewSource(2)), 10)
	f := make([]float64, 10)
	k.MulVecTo(f, want)
	x, st, err := Solve(ssor, f, Options{Tol: 1e-12, X0: want, MaxIter: 10})
	if err != nil || !st.Converged || st.Sweeps != 1 {
		t.Fatalf("exact x0: err=%v sweeps=%d", err, st.Sweeps)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatal("x0 solution drifted")
		}
	}
}

func TestSORSolvesPoisson(t *testing.T) {
	k := model.Poisson2D(10, 10)
	f := make([]float64, 100)
	f[55] = 1
	for _, w := range []float64{1.0, 1.5} {
		s, err := NewSOR(k, w)
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := Solve(s, f, Options{Tol: 1e-12, MaxIter: 20000})
		if err != nil || !st.Converged {
			t.Fatalf("ω=%g: err=%v", w, err)
		}
		if res := residualInf(k, x, f); res > 1e-9 {
			t.Fatalf("ω=%g: residual %g", w, res)
		}
	}
}

func TestOptimalOmegaBeatsGaussSeidel(t *testing.T) {
	// Classic SOR theory: for the Poisson problem, ω* ≈ 2/(1+sin(πh))
	// converges in far fewer sweeps than ω=1.
	n := 15
	k := model.Poisson2D(n, n)
	f := make([]float64, n*n)
	f[n*n/2] = 1
	h := 1.0 / float64(n+1)
	wOpt := 2 / (1 + math.Sin(math.Pi*h))
	sweeps := func(w float64) int {
		s, err := NewSOR(k, w)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := Solve(s, f, Options{Tol: 1e-10, MaxIter: 100000})
		if err != nil {
			t.Fatal(err)
		}
		return st.Sweeps
	}
	gs, opt := sweeps(1), sweeps(wOpt)
	if opt >= gs {
		t.Fatalf("ω*=%.3f (%d sweeps) not better than Gauss–Seidel (%d)", wOpt, opt, gs)
	}
}

func TestMulticolorSORMatchesNaturalOnColoredMatrix(t *testing.T) {
	// On a multicolor-ordered matrix, the color sweep IS the natural
	// ascending sweep (decoupled groups), so the two must agree exactly.
	plate, err := fem.NewPlate(5, 5, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kc := plate.KColored
	f := plate.ColoredRHS()
	nat, _ := NewSOR(kc, 1.2)
	mc, err := NewMulticolorSOR(kc, 1.2, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float64, kc.Rows)
	b := make([]float64, kc.Rows)
	for i := range a {
		a[i] = float64(i % 3)
	}
	copy(b, a)
	nat.Step(a, f, 1)
	mc.Step(b, f, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweeps differ at %d", i)
		}
	}
	if mc.GroupStart() == nil || nat.GroupStart() != nil {
		t.Fatal("GroupStart exposure wrong")
	}
}

func TestSORConstructorErrors(t *testing.T) {
	k := model.Laplacian1D(4)
	if _, err := NewSOR(k, 0); err == nil {
		t.Fatal("ω=0 accepted")
	}
	if _, err := NewSOR(k, 2); err == nil {
		t.Fatal("ω=2 accepted")
	}
	if _, err := NewMulticolorSOR(k, 1, []int{0, 2}); err == nil {
		t.Fatal("bad boundaries accepted")
	}
}

func TestSORNames(t *testing.T) {
	k := model.Laplacian1D(4)
	s1, _ := NewSOR(k, 1)
	if s1.Name() != "sor" {
		t.Fatalf("name %q", s1.Name())
	}
	s2, _ := NewSOR(k, 1.5)
	if s2.Name() == "sor" {
		t.Fatal("ω missing from name")
	}
	mc, _ := NewMulticolorSOR(k, 1, []int{0, 1, 2, 3, 4})
	if mc.Name() != "sor-multicolor" {
		t.Fatalf("name %q", mc.Name())
	}
}

// SOR as a preconditioner: PCG must reject it (not symmetric) — failure
// injection through the validation layer. It is a stationary Sweeper, but
// with no symmetric P it cannot be a splitting.Splitting.
func TestSORNotSymmetricAsPreconditioner(t *testing.T) {
	k := model.Poisson2D(6, 6)
	s, _ := NewSOR(k, 1)
	var _ Sweeper = s // it is a stationary sweep...
	// ...but its P⁻¹ is not symmetric:
	u := model.RandomVec(rand.New(rand.NewSource(3)), 36)
	v := model.RandomVec(rand.New(rand.NewSource(4)), 36)
	pu := make([]float64, 36)
	pv := make([]float64, 36)
	s.Step(pu, u, 1)
	s.Step(pv, v, 1)
	if math.Abs(vec.Dot(pu, v)-vec.Dot(u, pv)) < 1e-12 {
		t.Fatal("SOR unexpectedly symmetric — test matrix too special")
	}
}
