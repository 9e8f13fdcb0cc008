package cg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

func TestVerifyResidualMatchesRecurrence(t *testing.T) {
	k := model.Poisson2D(15, 15)
	f := model.RandomVec(rand.New(rand.NewSource(9)), 225)
	_, st, err := Solve(k, f, nil, Options{RelResidualTol: 1e-10, VerifyResidual: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.TrueRelRes < 0 {
		t.Fatal("true residual not computed")
	}
	// Recurrence and true residual agree at convergence.
	if math.Abs(st.TrueRelRes-st.FinalRelRes) > 1e-8 {
		t.Fatalf("true %g vs recurrence %g", st.TrueRelRes, st.FinalRelRes)
	}
}

func TestVerifyResidualDefaultOff(t *testing.T) {
	k := model.Laplacian1D(8)
	f := make([]float64, 8)
	f[0] = 1
	_, st, err := Solve(k, f, nil, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if st.TrueRelRes != -1 {
		t.Fatalf("TrueRelRes = %v without VerifyResidual", st.TrueRelRes)
	}
}
