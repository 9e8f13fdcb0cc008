package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/la"
)

func TestPoisson2DStructure(t *testing.T) {
	k := Poisson2D(4, 3)
	if k.Rows != 12 || k.Cols != 12 {
		t.Fatalf("dims %d×%d", k.Rows, k.Cols)
	}
	if !k.IsSymmetric(1e-15) {
		t.Fatal("not symmetric")
	}
	// Interior row: 4 on the diagonal, four -1 neighbors.
	row := 1*4 + 1 // node (1,1)
	if k.At(row, row) != 4 {
		t.Fatalf("diag = %v", k.At(row, row))
	}
	nnz := k.RowPtr[row+1] - k.RowPtr[row]
	if nnz != 5 {
		t.Fatalf("interior row nnz = %d", nnz)
	}
	// Corner row: 4 and two neighbors.
	if got := k.RowPtr[1] - k.RowPtr[0]; got != 3 {
		t.Fatalf("corner row nnz = %d", got)
	}
}

func TestPoisson2DSPD(t *testing.T) {
	k := Poisson2D(5, 5)
	n := k.Rows
	d := la.NewMatrix(n, n)
	for i, row := range k.Dense() {
		copy(d.Data[i*n:(i+1)*n], row)
	}
	if _, err := la.Cholesky(d); err != nil {
		t.Fatalf("Poisson not SPD: %v", err)
	}
}

func TestLaplacian1DEigenvalues(t *testing.T) {
	// Spectral check via quadratic form with a known eigenvector:
	// v_k(i) = sin(kπ(i+1)/(n+1)), λ_k = 2−2cos(kπ/(n+1)).
	n := 12
	k := Laplacian1D(n)
	for _, mode := range []int{1, n / 2, n} {
		v := make([]float64, n)
		for i := range v {
			v[i] = math.Sin(float64(mode) * math.Pi * float64(i+1) / float64(n+1))
		}
		kv := make([]float64, n)
		k.MulVecTo(kv, v)
		want := 2 - 2*math.Cos(float64(mode)*math.Pi/float64(n+1))
		for i := range v {
			if math.Abs(kv[i]-want*v[i]) > 1e-12 {
				t.Fatalf("mode %d not an eigenvector", mode)
			}
		}
	}
}

func TestRandomSPDIsSPDAndSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		k := RandomSPD(rng, n, 3)
		if !k.IsSymmetric(1e-12) {
			return false
		}
		// Diagonal dominance ⇒ positive quadratic forms on probes.
		for trial := 0; trial < 4; trial++ {
			x := RandomVec(rng, n)
			kx := make([]float64, n)
			k.MulVecTo(kx, x)
			var q float64
			for i := range x {
				q += x[i] * kx[i]
			}
			if q <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSPDDeterministicPerSeed(t *testing.T) {
	a := RandomSPD(rand.New(rand.NewSource(7)), 15, 4)
	b := RandomSPD(rand.New(rand.NewSource(7)), 15, 4)
	if a.NNZ() != b.NNZ() {
		t.Fatal("nondeterministic structure")
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] {
			t.Fatal("nondeterministic values")
		}
	}
}

func TestRandomVecLengthAndSpread(t *testing.T) {
	v := RandomVec(rand.New(rand.NewSource(1)), 1000)
	if len(v) != 1000 {
		t.Fatal("length")
	}
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= 1000
	if math.Abs(mean) > 0.2 {
		t.Fatalf("suspicious mean %g for standard normals", mean)
	}
}
