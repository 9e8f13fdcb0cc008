package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
)

// randRectCSR builds a random rows×cols matrix with the given fill density.
func randRectCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return c.ToCSR()
}

// randSquareCSR builds a random square matrix with a guaranteed nonzero
// diagonal (so the DIA conversion has substance).
func randSquareCSR(rng *rand.Rand, n int, density float64) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1+rng.Float64())
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < density {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return c.ToCSR()
}

// TestCSRMulMatMatchesMulVec is the property test: for random matrices and
// random multivectors, one SpMM equals s independent SpMVs, exactly.
func TestCSRMulMatMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		s := 1 + rng.Intn(9)
		a := randRectCSR(rng, rows, cols, 0.2)
		x := vec.NewMulti(cols, s)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		dst := vec.NewMulti(rows, s)
		a.MulMatTo(dst, x)
		for j := 0; j < s; j++ {
			want := make([]float64, rows)
			a.MulVecTo(want, x.Col(j))
			for i := range want {
				if dst.Col(j)[i] != want[i] {
					t.Fatalf("trial %d: CSR SpMM col %d row %d: %g != %g", trial, j, i, dst.Col(j)[i], want[i])
				}
			}
		}
		par := vec.NewMulti(rows, s)
		a.ParMulMatTo(par, x, 4)
		for i := range par.Data {
			if par.Data[i] != dst.Data[i] {
				t.Fatalf("trial %d: ParMulMatTo differs from MulMatTo at %d", trial, i)
			}
		}
	}
}

// TestDIAMulMatMatchesMulVec is the same property over diagonal storage.
func TestDIAMulMatMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		s := 1 + rng.Intn(9)
		a := MustDIAFromCSR(randSquareCSR(rng, n, 0.15))
		x := vec.NewMulti(n, s)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		dst := vec.NewMulti(n, s)
		a.MulMatTo(dst, x)
		for j := 0; j < s; j++ {
			want := make([]float64, n)
			a.MulVecTo(want, x.Col(j))
			for i := range want {
				if dst.Col(j)[i] != want[i] {
					t.Fatalf("trial %d: DIA SpMM col %d row %d: %g != %g", trial, j, i, dst.Col(j)[i], want[i])
				}
			}
		}
		par := vec.NewMulti(n, s)
		a.ParMulMatTo(par, x, 4)
		for i := range par.Data {
			if par.Data[i] != dst.Data[i] {
				t.Fatalf("trial %d: DIA ParMulMatTo differs at %d", trial, i)
			}
		}
	}
}

// TestParSpMMLarge crosses vec's parallel-length threshold so the chunked
// goroutine paths (not the serial fallback) are what run.
func TestParSpMMLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, s := 6000, 4
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4+rng.Float64())
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i+1 < n {
			c.Add(i, i+1, -1)
		}
	}
	a := c.ToCSR()
	x := vec.NewMulti(n, s)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	serial := vec.NewMulti(n, s)
	a.MulMatTo(serial, x)
	par := vec.NewMulti(n, s)
	a.ParMulMatTo(par, x, 4)
	for i := range par.Data {
		if par.Data[i] != serial.Data[i] {
			t.Fatalf("CSR ParMulMatTo (chunked) differs at %d", i)
		}
	}

	d := MustDIAFromCSR(a)
	dSerial := vec.NewMulti(n, s)
	d.MulMatTo(dSerial, x)
	dPar := vec.NewMulti(n, s)
	d.ParMulMatTo(dPar, x, 4)
	for i := range dPar.Data {
		if dPar.Data[i] != dSerial.Data[i] {
			t.Fatalf("DIA ParMulMatTo (chunked) differs at %d", i)
		}
	}
	v := make([]float64, n)
	d.ParMulVecTo(v, x.Col(0), 4)
	for i := range v {
		if v[i] != dSerial.Col(0)[i] {
			t.Fatalf("DIA ParMulVecTo (chunked) differs at %d", i)
		}
	}
}

// TestDIAParMulVec checks the new DIA row-parallel SpMV against the serial
// kernel (bitwise, since each row's accumulation order is unchanged).
func TestDIAParMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := MustDIAFromCSR(randSquareCSR(rng, 200, 0.1))
	x := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, got := make([]float64, 200), make([]float64, 200)
	a.MulVecTo(want, x)
	a.ParMulVecTo(got, x, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DIA ParMulVecTo row %d: %g != %g", i, got[i], want[i])
		}
	}
	if math.IsNaN(vec.Norm2(got)) {
		t.Fatal("NaN in product")
	}
}
