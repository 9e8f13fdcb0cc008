package precond

import (
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/model"
	"repro/internal/poly"
	"repro/internal/splitting"
	"repro/internal/vec"
)

// TestApplyBlockIdentity: the identity block apply is a plain copy.
func TestApplyBlockIdentity(t *testing.T) {
	r := vec.MultiFromCols([][]float64{{1, 2}, {3, 4}})
	z := vec.NewMulti(2, 2)
	ApplyBlock(Identity{}, z, r)
	for i := range r.Data {
		if z.Data[i] != r.Data[i] {
			t.Fatal("identity block apply changed values")
		}
	}
}

// TestApplyBlockFallbackMatchesApply: a splitting without a fused m-step
// fast path (Jacobi) runs m parametrized steps per column, and the block
// apply agrees with Apply exactly.
func TestApplyBlockFallbackMatchesApply(t *testing.T) {
	k := model.Laplacian1D(12)
	j, err := splitting.NewJacobi(k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMStep(j, poly.Ones(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	r := vec.NewMulti(12, 4)
	for i := range r.Data {
		r.Data[i] = rng.NormFloat64()
	}
	z := vec.NewMulti(12, 4)
	ApplyBlock(p, z, r)
	for col := 0; col < 4; col++ {
		want := make([]float64, 12)
		p.Apply(want, r.Col(col))
		for i := range want {
			if z.Col(col)[i] != want[i] {
				t.Fatalf("fallback col %d row %d: %g != %g", col, i, z.Col(col)[i], want[i])
			}
		}
	}
}

// TestApplyBlockMulticolorFastPath: the block apply of the multicolor SSOR
// m-step preconditioner runs the splitting's fused Conrad–Wallach sweep
// (its MStepApplier fast path) on every column and equals ApplyMStep.
func TestApplyBlockMulticolorFastPath(t *testing.T) {
	plate, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(plate.KColored, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMStep(mc, poly.Ones(3))
	if err != nil {
		t.Fatal(err)
	}
	if p.fast == nil {
		t.Fatal("multicolor SSOR should provide the fused m-step fast path")
	}
	n := plate.N()
	rng := rand.New(rand.NewSource(6))
	r := vec.NewMulti(n, 5)
	for i := range r.Data {
		r.Data[i] = rng.NormFloat64()
	}
	z := vec.NewMulti(n, 5)
	ApplyBlock(p, z, r)
	for col := 0; col < 5; col++ {
		want := make([]float64, n)
		mc.ApplyMStep(want, r.Col(col), p.Alphas.Coeffs)
		for i := range want {
			if z.Col(col)[i] != want[i] {
				t.Fatalf("fast path col %d row %d: %g != %g", col, i, z.Col(col)[i], want[i])
			}
		}
	}
}
