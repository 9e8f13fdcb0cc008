package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/model"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// TestParProductsMatchSerialBitwise runs every row-split product at workers
// 1–4 against the serial one, bit for bit, on systems above
// vec.MinParallelLen, where each worker count cuts the rows into chunks of
// its own: a 70² Poisson stencil in CSR and DIA (4,900 rows, diagonals at ±1
// and ±70, which every chunk edge cuts) and a 64² plate in CSR. The serial
// products are first pinned to plain loops that add each row's entries in
// storage order.
func TestParProductsMatchSerialBitwise(t *testing.T) {
	plate, err := fem.NewPlate(64, 64, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	poisson := model.Poisson2D(70, 70)
	dia := sparse.MustDIAFromCSR(poisson)
	cases := []struct {
		name string
		op   sparse.Operator
		ref  func(dst, x []float64)
	}{
		{"poisson 70² csr", poisson, csrLoop(poisson)},
		{"poisson 70² dia", dia, diaLoop(dia)},
		{"plate 64² csr", plate.KColored, csrLoop(plate.KColored)},
	}
	rng := rand.New(rand.NewSource(31))
	const s = 3
	for _, tc := range cases {
		n, _ := tc.op.Dims()
		if n < vec.MinParallelLen {
			t.Fatalf("%s: %d rows never split (MinParallelLen %d)", tc.name, n, vec.MinParallelLen)
		}
		x := vec.NewMulti(n, s)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		want := vec.NewMulti(n, s)
		for j := 0; j < s; j++ {
			tc.ref(want.Col(j), x.Col(j))
		}
		same := func(form string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %s: entry %d is %v, want %v", tc.name, form, i, got[i], want[i])
				}
			}
		}
		got := make([]float64, n)
		tc.op.MulVecTo(got, x.Col(1))
		same("MulVecTo", got, want.Col(1))
		block := vec.NewMulti(n, s)
		tc.op.MulMatTo(block, x)
		same("MulMatTo", block.Data, want.Data)
		for w := 1; w <= 4; w++ {
			clear(got)
			tc.op.ParMulVecTo(got, x.Col(1), w)
			same(fmt.Sprintf("ParMulVecTo w=%d", w), got, want.Col(1))
			clear(block.Data)
			tc.op.ParMulMatTo(block, x, w)
			same(fmt.Sprintf("ParMulMatTo w=%d", w), block.Data, want.Data)
		}
	}
}

// csrLoop is the plain CSR product: each row's entries added in storage
// order from zero.
func csrLoop(a *sparse.CSR) func(dst, x []float64) {
	return func(dst, x []float64) {
		for i := 0; i < a.Rows; i++ {
			var sum float64
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				sum += a.Val[k] * x[a.ColIdx[k]]
			}
			dst[i] = sum
		}
	}
}

// diaLoop is the plain DIA product: every row from zero, then each stored
// diagonal's entry added in offset order.
func diaLoop(a *sparse.DIA) func(dst, x []float64) {
	return func(dst, x []float64) {
		for i := range dst {
			dst[i] = 0
		}
		for k, d := range a.Offsets {
			for i := range dst {
				if j := i + d; j >= 0 && j < a.N {
					dst[i] += a.Diags[k][i] * x[j]
				}
			}
		}
	}
}
