package splitting

import (
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/model"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// coloredPlate returns the paper's 6-color plate system and its group
// boundaries.
func coloredPlate(t *testing.T, rows, cols int) (*sparse.CSR, []int, []float64) {
	t.Helper()
	p, err := fem.NewPlate(rows, cols, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p.KColored, p.Ordering.GroupStart[:], p.ColoredRHS()
}

func newSixColor(t *testing.T, rows, cols int) (*SixColorSSOR, *sparse.CSR, []float64) {
	t.Helper()
	k, start, rhs := coloredPlate(t, rows, cols)
	s, err := NewSixColorSSOR(k, start)
	if err != nil {
		t.Fatal(err)
	}
	return s, k, rhs
}

func TestSixColorRejectsCoupledGroups(t *testing.T) {
	// A tridiagonal matrix treated as one big group is not decoupled.
	k := model.Laplacian1D(5)
	if _, err := NewSixColorSSOR(k, []int{0, 5}); err == nil {
		t.Fatal("coupled group accepted")
	}
	// Each unknown its own group is trivially decoupled.
	if _, err := NewSixColorSSOR(k, []int{0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatalf("pointwise groups rejected: %v", err)
	}
}

func TestSixColorBoundaryValidation(t *testing.T) {
	k := model.Laplacian1D(4)
	if _, err := NewSixColorSSOR(k, []int{0, 2}); err == nil {
		t.Fatal("short boundaries accepted")
	}
	if _, err := NewSixColorSSOR(k, []int{0, 3, 2, 4}); err == nil {
		t.Fatal("decreasing boundaries accepted")
	}
	rect := sparse.NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if _, err := NewSixColorSSOR(rect.ToCSR(), []int{0, 2}); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
}

// The multicolor decoupling means a Gauss–Seidel sweep by ascending unknown
// equals a sweep by ascending color — so SixColorSSOR.Step must match
// NaturalSSOR(ω=1).Step on the same (permuted) matrix.
func TestSixColorStepMatchesNaturalSSOR(t *testing.T) {
	s, k, rhs := newSixColor(t, 6, 6)
	nat, err := NewNaturalSSOR(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	a := model.RandomVec(rng, k.Rows)
	b := vec.Clone(a)
	s.Step(a, rhs, 1.25)
	nat.Step(b, rhs, 1.25)
	if d := maxDiff(a, b); d > 1e-11 {
		t.Fatalf("multicolor step deviates from natural SSOR by %g", d)
	}
}

// The fused Conrad–Wallach m-step application must equal m strict steps
// from zero — the elided solves are provably dead.
func TestApplyMStepMatchesNaiveSteps(t *testing.T) {
	s, k, rhs := newSixColor(t, 6, 6)
	n := k.Rows
	for m := 1; m <= 6; m++ {
		alphas := make([]float64, m)
		for i := range alphas {
			alphas[i] = 1 + 0.3*float64(i) // distinct coefficients per step
		}
		fused := make([]float64, n)
		s.ApplyMStep(fused, rhs, alphas)

		naive := make([]float64, n)
		for step := 1; step <= m; step++ {
			s.Step(naive, rhs, alphas[m-step])
		}
		if d := maxDiff(fused, naive); d > 1e-11 {
			t.Fatalf("m=%d: fused vs naive differ by %g", m, d)
		}
	}
}

func TestApplyMStepPanicsOnEmpty(t *testing.T) {
	s, k, rhs := newSixColor(t, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.ApplyMStep(make([]float64, k.Rows), rhs, nil)
}

// The m-step preconditioner must define a symmetric operator in the
// Euclidean inner product: (M⁻¹u, v) = (u, M⁻¹v). This is the paper's
// §2 requirement (P symmetric ⇒ M symmetric).
func TestApplyMStepSymmetricOperator(t *testing.T) {
	s, k, _ := newSixColor(t, 6, 6)
	rng := rand.New(rand.NewSource(13))
	n := k.Rows
	for _, m := range []int{1, 2, 3, 4} {
		alphas := make([]float64, m)
		for i := range alphas {
			alphas[i] = 1 - 0.2*float64(i)
		}
		u := model.RandomVec(rng, n)
		v := model.RandomVec(rng, n)
		mu := make([]float64, n)
		mv := make([]float64, n)
		s.ApplyMStep(mu, u, alphas)
		s.ApplyMStep(mv, v, alphas)
		lhs := vec.Dot(mu, v)
		rhs := vec.Dot(u, mv)
		if diff := lhs - rhs; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("m=%d: M⁻¹ not symmetric: %g vs %g", m, lhs, rhs)
		}
	}
}

// The m-step stationary iteration (αᵢ=1) converges to K⁻¹r as m grows.
func TestApplyMStepConvergesToSolve(t *testing.T) {
	s, k, rhs := newSixColor(t, 5, 5)
	exact := denseSolve(t, k, rhs)
	var first, prev float64 = -1, -1
	for _, m := range []int{1, 4, 16, 64, 256} {
		alphas := make([]float64, m)
		for i := range alphas {
			alphas[i] = 1
		}
		got := make([]float64, k.Rows)
		s.ApplyMStep(got, rhs, alphas)
		d := maxDiff(got, exact)
		if prev >= 0 && d > prev {
			t.Fatalf("m=%d: error %g worse than smaller m (%g)", m, d, prev)
		}
		if first < 0 {
			first = d
		}
		prev = d
	}
	// ρ(G_SSOR) ≈ 0.95 on this mesh, so demand two orders of magnitude
	// over 256 steps rather than an absolute threshold.
	if prev > first*1e-2 {
		t.Fatalf("m=256 SSOR error %g did not drop below 1%% of m=1 error %g", prev, first)
	}
}

// The six color groups — the vector lengths of the per-color diagonal
// solves — partition the unknowns, and each color's u and v groups have
// equal lengths.
func TestGroupLengths(t *testing.T) {
	s, k, _ := newSixColor(t, 6, 6)
	lens := make([]int, len(s.Start)-1)
	for c := range lens {
		lens[c] = s.Start[c+1] - s.Start[c]
	}
	total := 0
	for _, l := range lens {
		total += l
	}
	if total != k.Rows {
		t.Fatalf("group lengths sum %d, want %d", total, k.Rows)
	}
	if len(lens) != 6 {
		t.Fatalf("expected 6 groups, got %d", len(lens))
	}
	// u and v groups of each color have equal lengths.
	for c := 0; c < 3; c++ {
		if lens[2*c] != lens[2*c+1] {
			t.Fatalf("color %d u/v group sizes differ: %v", c, lens)
		}
	}
}

func TestSixColorName(t *testing.T) {
	s, _, _ := newSixColor(t, 4, 4)
	if s.Name() != "ssor-multicolor" {
		t.Fatalf("name = %s", s.Name())
	}
}
