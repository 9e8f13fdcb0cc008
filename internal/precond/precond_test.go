package precond

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fem"
	"repro/internal/model"
	"repro/internal/poly"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
)

func TestIdentity(t *testing.T) {
	var id Identity
	r := []float64{1, 2, 3}
	z := make([]float64, 3)
	id.Apply(z, r)
	for i := range r {
		if z[i] != r[i] {
			t.Fatal("identity changed vector")
		}
	}
	if id.Name() != "none" {
		t.Fatal("identity metadata wrong")
	}
}

func TestNewMStepRejectsEmpty(t *testing.T) {
	k := model.Laplacian1D(5)
	j, _ := splitting.NewJacobi(k)
	if _, err := NewMStep(j, poly.Alphas{}); err == nil {
		t.Fatal("empty alphas accepted")
	}
}

func TestMStepJacobiIsNeumannSeries(t *testing.T) {
	// m-step Jacobi with αᵢ=1 equals the truncated Neumann series
	// Σ_{i<m} (I−D⁻¹K)ⁱ D⁻¹ applied to r.
	rng := rand.New(rand.NewSource(1))
	k := model.RandomSPD(rng, 15, 3)
	j, _ := splitting.NewJacobi(k)
	m := 4
	p, err := NewMStep(j, poly.Ones(m))
	if err != nil {
		t.Fatal(err)
	}
	r := model.RandomVec(rng, 15)
	z := make([]float64, 15)
	p.Apply(z, r)

	// Explicit Neumann sum.
	d := k.Diag()
	dinvr := make([]float64, 15)
	for i := range dinvr {
		dinvr[i] = r[i] / d[i]
	}
	term := vec.Clone(dinvr)
	want := vec.Clone(dinvr)
	tmp := make([]float64, 15)
	for i := 1; i < m; i++ {
		// term ← (I − D⁻¹K)·term
		k.MulVecTo(tmp, term)
		for q := range term {
			term[q] -= tmp[q] / d[q]
		}
		vec.Axpy(1, term, want)
	}
	for i := range want {
		if diff := z[i] - want[i]; diff > 1e-10 || diff < -1e-10 {
			t.Fatalf("Neumann mismatch at %d: %g vs %g", i, z[i], want[i])
		}
	}
}

func TestMStepUsesFastPath(t *testing.T) {
	// The multicolor splitting implements MStepApplier; fused and step-wise
	// application must agree (the splitting package proves equivalence, here
	// we check the preconditioner actually routes through it and matches a
	// generic splitting of the same matrix).
	plate, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(plate.KColored, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	nat, err := splitting.NewNaturalSSOR(plate.KColored, 1)
	if err != nil {
		t.Fatal(err)
	}
	a := poly.Ones(3)
	pm, _ := NewMStep(mc, a)
	pn, _ := NewMStep(nat, a)
	if pm.fast == nil {
		t.Fatal("multicolor m-step did not take the fused path")
	}
	if pn.fast != nil {
		t.Fatal("natural SSOR unexpectedly has a fused path")
	}
	r := plate.ColoredRHS()
	z1 := make([]float64, plate.N())
	z2 := make([]float64, plate.N())
	pm.Apply(z1, r)
	pn.Apply(z2, r)
	for i := range z1 {
		if d := z1[i] - z2[i]; d > 1e-10 || d < -1e-10 {
			t.Fatalf("fused multicolor deviates from generic SSOR at %d: %g", i, d)
		}
	}
}

func TestMStepName(t *testing.T) {
	k := model.Laplacian1D(6)
	j, _ := splitting.NewJacobi(k)
	p, _ := NewMStep(j, poly.Ones(2))
	name := p.Name()
	if !strings.Contains(name, "2-step") || !strings.Contains(name, "jacobi") {
		t.Fatalf("name = %q", name)
	}
}

func TestValidateAcceptsSSORMStep(t *testing.T) {
	plate, err := fem.NewPlate(5, 5, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(plate.KColored, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for m := 1; m <= 4; m++ {
		p, _ := NewMStep(mc, poly.Ones(m))
		if err := Validate(p, plate.N(), rng, 6); err != nil {
			t.Fatalf("m=%d SSOR preconditioner rejected: %v", m, err)
		}
	}
}

func TestEvenMJacobiIndefiniteOnWideSpectrum(t *testing.T) {
	// K = I + 0.6·(J−I) (3×3, SPD, eigenvalues {2.2, 0.4, 0.4}) has
	// λ_max(D⁻¹K) = 2.2 > 2, so the unparametrized m=2 Neumann
	// preconditioner has q(2.2) = 2.2·(1−1.2²)... < 0: indefinite. The
	// offending eigenvector is (1,1,1).
	coo := sparseSym3(0.6)
	j, err := splitting.NewJacobi(coo)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewMStep(j, poly.Ones(2))
	u := []float64{1, 1, 1}
	z := make([]float64, 3)
	p2.Apply(z, u)
	if q := vec.Dot(z, u); q >= 0 {
		t.Fatalf("m=2 Neumann quadratic form = %g, expected negative", q)
	}
	// Odd m stays definite on this vector: q(2.2) = 1−(−1.2)³ > 0.
	p3, _ := NewMStep(j, poly.Ones(3))
	p3.Apply(z, u)
	if q := vec.Dot(z, u); q <= 0 {
		t.Fatalf("m=3 Neumann quadratic form = %g, expected positive", q)
	}
	// The polynomial-level predictor agrees.
	if poly.Ones(2).PositiveOn(0.4, 2.2) {
		t.Fatal("Ones(2) claimed positive on [0.4, 2.2]")
	}
	if !poly.Ones(3).PositiveOn(0.4, 2.2) {
		t.Fatal("Ones(3) claimed non-positive on [0.4, 2.2]")
	}
}

func TestValidateDetectsAsymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if err := Validate(asym{}, 4, rng, 8); err == nil {
		t.Fatal("asymmetric operator accepted")
	}
}

func TestValidateDetectsIndefiniteness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if err := Validate(negate{}, 4, rng, 8); err == nil {
		t.Fatal("negative definite operator accepted")
	}
}

// sparseSym3 builds the 3×3 matrix with unit diagonal and off-diagonal a.
func sparseSym3(a float64) *sparse.CSR {
	c := sparse.NewCOO(3, 3)
	for i := 0; i < 3; i++ {
		c.Add(i, i, 1)
		for j := 0; j < 3; j++ {
			if i != j {
				c.Add(i, j, a)
			}
		}
	}
	return c.ToCSR()
}

// asym is an intentionally non-symmetric "preconditioner" for failure
// injection.
type asym struct{}

func (asym) Apply(z, r []float64) {
	copy(z, r)
	if len(z) > 1 {
		z[0] += 0.5 * r[1] // one-sided coupling
	}
}
func (asym) Name() string { return "asym" }

// negate is symmetric but negative definite.
type negate struct{}

func (negate) Apply(z, r []float64) {
	for i := range r {
		z[i] = -r[i]
	}
}
func (negate) Name() string { return "negate" }
