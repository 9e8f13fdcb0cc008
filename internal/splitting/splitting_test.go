package splitting

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/model"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// denseSolve solves K x = b exactly via dense LU (test sizes only).
func denseSolve(t *testing.T, k *sparse.CSR, b []float64) []float64 {
	t.Helper()
	n := k.Rows
	d := la.NewMatrix(n, n)
	for i, row := range k.Dense() {
		copy(d.Data[i*n:(i+1)*n], row)
	}
	x, err := la.Solve(d, b)
	if err != nil {
		t.Fatalf("dense solve: %v", err)
	}
	return x
}

func maxDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestJacobiStepMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := model.RandomSPD(rng, 20, 3)
	j, err := NewJacobi(k)
	if err != nil {
		t.Fatal(err)
	}
	rhat := model.RandomVec(rng, 20)
	r := model.RandomVec(rng, 20)
	want := vec.Clone(rhat)
	// Explicit: r̂ + D⁻¹(αr − K r̂)
	kr := make([]float64, len(rhat))
	k.MulVecTo(kr, rhat)
	d := k.Diag()
	alpha := 1.7
	for i := range want {
		want[i] += (alpha*r[i] - kr[i]) / d[i]
	}
	j.Step(rhat, r, alpha)
	if maxDiff(rhat, want) > 1e-12 {
		t.Fatalf("Jacobi step mismatch: %g", maxDiff(rhat, want))
	}
}

// Property: the exact solution K⁻¹(α·r) is a fixed point of Step with that α.
func TestStepFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := model.RandomSPD(rng, 15, 3)
	r := model.RandomVec(rng, 15)
	exact := denseSolve(t, k, r)

	j, _ := NewJacobi(k)
	s, _ := NewNaturalSSOR(k, 1)
	for _, sp := range []Splitting{j, s} {
		rhat := vec.Clone(exact)
		sp.Step(rhat, r, 1)
		if d := maxDiff(rhat, exact); d > 1e-10 {
			t.Fatalf("%s: fixed point moved by %g", sp.Name(), d)
		}
	}
}

// The stationary iteration with α=1 must converge to K⁻¹r for SSOR on SPD
// matrices (and for Jacobi on this strongly diagonally dominant family).
func TestStationaryIterationConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := model.RandomSPD(rng, 25, 3)
	r := model.RandomVec(rng, 25)
	exact := denseSolve(t, k, r)

	j, _ := NewJacobi(k)
	s, _ := NewNaturalSSOR(k, 1)
	sOmega, _ := NewNaturalSSOR(k, 1.3)
	for _, sp := range []Splitting{j, s, sOmega} {
		rhat := make([]float64, 25)
		for it := 0; it < 400; it++ {
			sp.Step(rhat, r, 1)
		}
		if d := maxDiff(rhat, exact); d > 1e-8 {
			t.Fatalf("%s: stationary iteration residual %g after 400 steps", sp.Name(), d)
		}
	}
}

// Step must be affine: Step(r̂, r, α) = G·r̂ + α·P⁻¹·r. Check linearity in α
// by comparing α-scaled zero-start steps.
func TestStepLinearInAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k := model.RandomSPD(rng, 12, 3)
	r := model.RandomVec(rng, 12)
	s, _ := NewNaturalSSOR(k, 1)

	a := make([]float64, 12)
	s.Step(a, r, 2.5) // from zero: 2.5·P⁻¹r

	b := make([]float64, 12)
	s.Step(b, r, 1) // from zero: P⁻¹r
	vec.Scale(2.5, b)
	if d := maxDiff(a, b); d > 1e-12 {
		t.Fatalf("step not linear in α: %g", d)
	}
}

func TestSSORPSymmetricImpliesSymmetricPinv(t *testing.T) {
	// P⁻¹ applied via zero-start Step must be a symmetric operator:
	// (P⁻¹u, v) = (u, P⁻¹v).
	rng := rand.New(rand.NewSource(5))
	k := model.RandomSPD(rng, 18, 3)
	s, _ := NewNaturalSSOR(k, 1)
	u := model.RandomVec(rng, 18)
	v := model.RandomVec(rng, 18)
	pu := make([]float64, 18)
	pv := make([]float64, 18)
	s.Step(pu, u, 1)
	s.Step(pv, v, 1)
	lhs := vec.Dot(pu, v)
	rhs := vec.Dot(u, pv)
	if math.Abs(lhs-rhs) > 1e-10*(1+math.Abs(lhs)) {
		t.Fatalf("P⁻¹ not symmetric: %g vs %g", lhs, rhs)
	}
}

func TestConstructorErrors(t *testing.T) {
	rect := sparse.NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, err := NewJacobi(rect.ToCSR()); err == nil {
		t.Fatal("Jacobi accepted rectangular matrix")
	}
	if _, err := NewNaturalSSOR(rect.ToCSR(), 1); err == nil {
		t.Fatal("SSOR accepted rectangular matrix")
	}

	neg := sparse.NewCOO(2, 2)
	neg.Add(0, 0, -1)
	neg.Add(1, 1, 1)
	if _, err := NewJacobi(neg.ToCSR()); err == nil {
		t.Fatal("Jacobi accepted non-positive diagonal")
	}
	if _, err := NewNaturalSSOR(neg.ToCSR(), 1); err == nil {
		t.Fatal("SSOR accepted non-positive diagonal")
	}

	ok := model.Laplacian1D(4)
	if _, err := NewNaturalSSOR(ok, 0); err == nil {
		t.Fatal("SSOR accepted ω=0")
	}
	if _, err := NewNaturalSSOR(ok, 2); err == nil {
		t.Fatal("SSOR accepted ω=2")
	}
}

func TestNames(t *testing.T) {
	k := model.Laplacian1D(4)
	j, _ := NewJacobi(k)
	if j.Name() != "jacobi" {
		t.Fatal("jacobi name")
	}
	s1, _ := NewNaturalSSOR(k, 1)
	if s1.Name() != "ssor-natural" {
		t.Fatal("ssor name")
	}
	s2, _ := NewNaturalSSOR(k, 1.5)
	if s2.Name() == s1.Name() {
		t.Fatal("ω should appear in name")
	}
}
