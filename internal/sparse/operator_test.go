package sparse

import (
	"math/rand"
	"testing"
)

func TestOperatorDims(t *testing.T) {
	a := small() // 3×3 tridiagonal
	var op Operator = a
	if r, c := op.Dims(); r != 3 || c != 3 {
		t.Fatalf("CSR Dims = %d×%d", r, c)
	}
	d := MustDIAFromCSR(a)
	op = d
	if r, c := op.Dims(); r != 3 || c != 3 {
		t.Fatalf("DIA Dims = %d×%d", r, c)
	}
	rect := NewCOO(2, 5)
	rect.Add(1, 4, 1)
	if r, c := rect.ToCSR().Dims(); r != 2 || c != 5 {
		t.Fatalf("rectangular Dims = %d×%d", r, c)
	}
}

func TestDIADiagMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randSquareCSR(rng, 40, 0.2)
	d := MustDIAFromCSR(a)
	want := a.Diag()
	got := d.Diag()
	if len(got) != len(want) {
		t.Fatalf("Diag length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Diag[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDIADiagAbsentMainDiagonal(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 1, 2)
	c.Add(2, 0, 5)
	d := MustDIAFromCSR(c.ToCSR())
	for i, v := range d.Diag() {
		if v != 0 {
			t.Fatalf("Diag[%d] = %v, want 0 (no main diagonal stored)", i, v)
		}
	}
}

func TestDiagStats(t *testing.T) {
	// small() is 3×3 tridiagonal: offsets {-1, 0, 1}, bandwidth 1.
	nd, bw := small().DiagStats()
	if nd != 3 || bw != 1 {
		t.Fatalf("DiagStats = (%d, %d), want (3, 1)", nd, bw)
	}
	c := NewCOO(6, 6)
	c.Add(0, 5, 1) // offset +5
	c.Add(5, 0, 1) // offset -5
	c.Add(2, 2, 1) // offset 0
	nd, bw = c.ToCSR().DiagStats()
	if nd != 3 || bw != 5 {
		t.Fatalf("DiagStats = (%d, %d), want (3, 5)", nd, bw)
	}
	if nd, bw := (&CSR{Rows: 4, Cols: 4, RowPtr: make([]int, 5)}).DiagStats(); nd != 0 || bw != 0 {
		t.Fatalf("empty DiagStats = (%d, %d), want (0, 0)", nd, bw)
	}
}
