package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Fatalf("At = %v, want 7", m.At(0, 1))
	}
	c := m.Clone()
	c.Set(0, 1, 0)
	if m.At(0, 1) != 7 {
		t.Fatal("Clone aliases data")
	}
}

func TestFromRowsAndT(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	mt := m.T()
	if mt.Rows != 2 || mt.Cols != 3 {
		t.Fatalf("T dims %d×%d", mt.Rows, mt.Cols)
	}
	if mt.At(1, 2) != 6 || mt.At(0, 1) != 3 {
		t.Fatalf("T values wrong: %+v", mt)
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	c := a.Mul(b)
	want := FromRows([][]float64{{2, 1}, {4, 3}})
	for i := range c.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %+v, want %+v", c, want)
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := FromRows([][]float64{
		{4, 2, 2},
		{2, 5, 3},
		{2, 3, 6},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Check L Lᵀ = A.
	llt := l.Mul(l.T())
	for i := range a.Data {
		if math.Abs(llt.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatalf("LLᵀ != A: %v vs %v", llt.Data, a.Data)
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("expected ErrNotSPD, got %v", err)
	}
}

func TestSolveSPD(t *testing.T) {
	a := FromRows([][]float64{
		{4, 2, 2},
		{2, 5, 3},
		{2, 3, 6},
	})
	want := []float64{1, -2, 3}
	b := []float64{6, 1, 14} // a · want
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("SolveSPD x = %v, want %v", x, want)
		}
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{0, 2, 1}, // zero pivot forces a row swap
		{1, 1, 1},
		{2, 1, 3},
	})
	want := []float64{3, -1, 2}
	b := []float64{0, 4, 11} // a · want
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("Solve x = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

// Property: LU solve recovers random solutions of random well-conditioned
// systems (diagonally dominant).
func TestLUSolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			a.Add(i, i, rowSum+1) // diagonal dominance
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for i := range b {
			for j, w := range want {
				b[i] += a.At(i, j) * w
			}
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky solve matches LU solve on random SPD matrices AᵀA + I.
func TestCholeskyMatchesLUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		g := NewMatrix(n, n)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		a := g.T().Mul(g)
		for i := 0; i < n; i++ {
			a.Add(i, i, 1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x1, err1 := SolveSPD(a, b)
		x2, err2 := Solve(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range b {
			if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x2[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
