package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDIARoundTrip(t *testing.T) {
	a := small()
	d := MustDIAFromCSR(a)
	back := d.ToCSR()
	if back.NNZ() != a.NNZ() {
		t.Fatalf("round trip nnz %d vs %d", back.NNZ(), a.NNZ())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if back.At(i, j) != a.At(i, j) {
				t.Fatalf("round trip (%d,%d): %v vs %v", i, j, back.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestDIAOffsetsTridiagonal(t *testing.T) {
	d := MustDIAFromCSR(small())
	want := []int{-1, 0, 1}
	if len(d.Offsets) != 3 {
		t.Fatalf("Offsets = %v", d.Offsets)
	}
	for i, o := range want {
		if d.Offsets[i] != o {
			t.Fatalf("Offsets = %v, want %v", d.Offsets, want)
		}
	}
}

func TestDIAMulVecMatchesCSR(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		a := randCSR(rng, n, 3)
		d := MustDIAFromCSR(a)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ya, yd := make([]float64, n), make([]float64, n)
		a.MulVecTo(ya, x)
		d.MulVecTo(yd, x)
		for i := range ya {
			if math.Abs(ya[i]-yd[i]) > 1e-12*(1+math.Abs(ya[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDIAOpLengths(t *testing.T) {
	d := MustDIAFromCSR(small())
	lens := d.OpLengths()
	want := []int{2, 3, 2} // offsets -1, 0, +1 on a 3×3
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("OpLengths = %v, want %v", lens, want)
		}
	}
}

func TestDiagRange(t *testing.T) {
	cases := []struct {
		n, d, lo, hi int
	}{
		{5, 0, 0, 5},
		{5, 2, 0, 3},
		{5, -2, 2, 5},
		{5, 5, 0, 0},
		{5, -7, 7, 7},
	}
	for _, c := range cases {
		lo, hi := diagRange(c.n, c.d)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("diagRange(%d,%d) = [%d,%d), want [%d,%d)", c.n, c.d, lo, hi, c.lo, c.hi)
		}
	}
}

func TestDIANonSquareErrors(t *testing.T) {
	c := NewCOO(2, 3)
	c.Add(0, 0, 1)
	if _, err := NewDIAFromCSR(c.ToCSR()); err == nil {
		t.Fatal("expected an error for a non-square matrix")
	}
}

func TestMustDIAFromCSRNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCOO(2, 3)
	c.Add(0, 0, 1)
	MustDIAFromCSR(c.ToCSR())
}
