package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 12 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy: y = %v, want %v", y, want)
		}
	}
}

func TestXpay(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Xpay(x, 0.5, y) // y = x + 0.5 y
	want := []float64{6, 12, 18}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Xpay: y = %v, want %v", y, want)
		}
	}
}

func TestScaleZeroFillCopy(t *testing.T) {
	x := []float64{1, 2, 3}
	Scale(3, x)
	if x[2] != 9 {
		t.Fatalf("Scale: %v", x)
	}
	Zero(x)
	if x[0] != 0 || x[1] != 0 || x[2] != 0 {
		t.Fatalf("Zero: %v", x)
	}
	Fill(7, x)
	if x[0] != 7 || x[2] != 7 {
		t.Fatalf("Fill: %v", x)
	}
	y := make([]float64, 3)
	Copy(y, x)
	if y[1] != 7 {
		t.Fatalf("Copy: %v", y)
	}
}

func TestAddSub(t *testing.T) {
	x := []float64{2, 4, 8}
	y := []float64{1, 2, 4}
	dst := make([]float64, 3)
	Add(dst, x, y)
	if dst[0] != 3 || dst[2] != 12 {
		t.Fatalf("Add: %v", dst)
	}
	Sub(dst, x, y)
	if dst[0] != 1 || dst[2] != 4 {
		t.Fatalf("Sub: %v", dst)
	}
}

func TestNorm2(t *testing.T) {
	x := []float64{3, 4}
	if got := Norm2(x); !almostEq(got, 5, 1e-15) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := math.MaxFloat64 / 2
	x := []float64{big, big}
	got := Norm2(x)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("Norm2 overflowed: %v", got)
	}
	want := big * math.Sqrt2
	if !almostEq(got, want, 1e-14) {
		t.Fatalf("Norm2 = %v, want %v", got, want)
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{-7, 3, 5}); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
	if got := NormInf(nil); got != 0 {
		t.Fatalf("NormInf(nil) = %v, want 0", got)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	x := []float64{1, 5, 3}
	y := []float64{1, 2, 4}
	if got := MaxAbsDiff(x, y); got != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", got)
	}
}

func TestClone(t *testing.T) {
	x := []float64{1, 2}
	y := Clone(x)
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone did not copy")
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, -2, 0}) {
		t.Fatal("finite vector reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("Inf not detected")
	}
}

// Property: Dot is symmetric and bilinear.
func TestDotPropertySymmetricBilinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		x, y, z := randVec(rng, n), randVec(rng, n), randVec(rng, n)
		a := rng.NormFloat64()
		// symmetry
		if !almostEq(Dot(x, y), Dot(y, x), 1e-12) {
			return false
		}
		// linearity in first arg: (a x + z, y) = a (x,y) + (z,y)
		ax := Clone(z)
		Axpy(a, x, ax)
		lhs := Dot(ax, y)
		rhs := a*Dot(x, y) + Dot(z, y)
		return almostEq(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxAbsDiff(x, y) == NormInf(x - y).
func TestMaxAbsDiffMatchesNormInf(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		x, y := randVec(rng, n), randVec(rng, n)
		d := make([]float64, n)
		Sub(d, x, y)
		return MaxAbsDiff(x, y) == NormInf(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}
