package sparse

import (
	"math/rand"
	"testing"
)

// small builds the 3×3 test matrix
//
//	[2 -1  0]
//	[-1 2 -1]
//	[0 -1  2]
func small() *CSR {
	c := NewCOO(3, 3)
	for i := 0; i < 3; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < 2 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

func randCSR(rng *rand.Rand, n, perRow int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			c.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return c.ToCSR()
}

func TestCOODuplicatesSummed(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2)
	c.Add(1, 0, 5)
	a := c.ToCSR()
	if a.At(0, 0) != 3 {
		t.Fatalf("duplicate sum: %v", a.At(0, 0))
	}
	if a.At(1, 0) != 5 || a.At(1, 1) != 0 {
		t.Fatalf("entries wrong: %v", a.Dense())
	}
}

func TestCOOCancellationDropped(t *testing.T) {
	c := NewCOO(1, 1)
	c.Add(0, 0, 1)
	c.Add(0, 0, -1)
	a := c.ToCSR()
	if a.NNZ() != 0 {
		t.Fatalf("cancelled entry kept: nnz=%d", a.NNZ())
	}
}

func TestCOOBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestCSRSortedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randCSR(rng, 30, 5)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] <= a.ColIdx[k-1] {
				t.Fatalf("row %d columns not strictly increasing", i)
			}
		}
	}
}

func TestMulVecKnown(t *testing.T) {
	a := small()
	y := make([]float64, 3)
	a.MulVecTo(y, []float64{1, 2, 3})
	want := []float64{0, 0, 4}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
}

func TestAtMissing(t *testing.T) {
	a := small()
	if a.At(0, 2) != 0 {
		t.Fatal("missing entry should read 0")
	}
	if a.At(0, 1) != -1 {
		t.Fatal("present entry misread")
	}
}

func TestDiag(t *testing.T) {
	d := small().Diag()
	for _, v := range d {
		if v != 2 {
			t.Fatalf("Diag = %v", d)
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	if !small().IsSymmetric(1e-14) {
		t.Fatal("symmetric matrix misreported")
	}
	c := NewCOO(2, 2)
	c.Add(0, 1, 1)
	if c.ToCSR().IsSymmetric(1e-14) {
		t.Fatal("asymmetric matrix misreported")
	}
}

func TestParMulVecMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randCSR(rng, 5000, 9)
	x := make([]float64, 5000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 5000)
	y2 := make([]float64, 5000)
	a.MulVecTo(y1, x)
	a.ParMulVecTo(y2, x, 8)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatalf("parallel SpMV differs at %d: %v vs %v", i, y2[i], y1[i])
		}
	}
}

func TestMaxRowNNZ(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 1)
	c.Add(1, 0, 1)
	c.Add(1, 1, 1)
	c.Add(1, 2, 1)
	if got := c.ToCSR().MaxRowNNZ(); got != 3 {
		t.Fatalf("MaxRowNNZ = %d, want 3", got)
	}
}

func TestEmptyRowsRowPtr(t *testing.T) {
	c := NewCOO(4, 4)
	c.Add(3, 3, 1) // rows 0..2 empty
	a := c.ToCSR()
	for i := 0; i < 3; i++ {
		if a.RowPtr[i+1] != a.RowPtr[i] {
			t.Fatalf("empty row %d has entries", i)
		}
	}
	if a.At(3, 3) != 1 {
		t.Fatal("entry lost")
	}
}
