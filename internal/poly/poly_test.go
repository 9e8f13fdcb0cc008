package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvalHorner(t *testing.T) {
	p := Poly{1, -2, 3} // 1 - 2x + 3x²
	if got := p.Eval(2); got != 9 {
		t.Fatalf("Eval(2) = %v, want 9", got)
	}
	if got := (Poly{}).Eval(5); got != 0 {
		t.Fatalf("zero poly Eval = %v", got)
	}
}

func TestTrim(t *testing.T) {
	p := Poly{1, 2, 0, 0}
	if len(p.Trim()) != 2 {
		t.Fatalf("Trim len = %d, want 2", len(p.Trim()))
	}
	if len((Poly{0, 0}).Trim()) != 0 {
		t.Fatal("zero poly should trim to no coefficients")
	}
}

func TestAddSubScale(t *testing.T) {
	p := Poly{1, 2}
	q := Poly{0, 1, 3}
	s := p.Add(q)
	want := Poly{1, 3, 3}
	if !s.Equal(want, 0) {
		t.Fatalf("Add = %v, want %v", s, want)
	}
	d := p.Sub(q)
	if !d.Equal(Poly{1, 1, -3}, 0) {
		t.Fatalf("Sub = %v", d)
	}
	if !p.Scale(2).Equal(Poly{2, 4}, 0) {
		t.Fatalf("Scale = %v", p.Scale(2))
	}
}

func TestMul(t *testing.T) {
	// (1+x)(1-x) = 1-x²
	p := Poly{1, 1}.Mul(Poly{1, -1})
	if !p.Equal(Poly{1, 0, -1}, 0) {
		t.Fatalf("Mul = %v", p)
	}
	if got := (Poly{1, 2}).Mul(Poly{}); len(got.Trim()) != 0 {
		t.Fatalf("Mul by zero = %v", got)
	}
}

func TestCompose(t *testing.T) {
	// p(x) = x², q(x) = 1-x → p(q) = 1 - 2x + x²
	p := Poly{0, 0, 1}
	got := p.Compose(OneMinusX)
	if !got.Equal(Poly{1, -2, 1}, 1e-15) {
		t.Fatalf("Compose = %v", got)
	}
}

func TestComposeIdentityRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		p := make(Poly, n)
		for i := range p {
			p[i] = rng.NormFloat64()
		}
		// p(1-(1-x)) == p
		back := p.Compose(OneMinusX).Compose(OneMinusX)
		return back.Equal(p, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAntiDeriv(t *testing.T) {
	ad := Poly{2, 6}.AntiDeriv() // 2 + 6x
	if !ad.Equal(Poly{0, 2, 3}, 1e-15) {
		t.Fatalf("AntiDeriv = %v", ad)
	}
}

func TestIntegrate(t *testing.T) {
	// ∫₀¹ x² dx = 1/3
	got := Poly{0, 0, 1}.Integrate(0, 1)
	if math.Abs(got-1.0/3) > 1e-15 {
		t.Fatalf("Integrate = %v, want 1/3", got)
	}
	// Reversed limits negate.
	if math.Abs((Poly{1}).Integrate(1, 0)+1) > 1e-15 {
		t.Fatal("reversed limits")
	}
}

func TestDivideByX(t *testing.T) {
	q, rem := Poly{0, 1, 2}.DivideByX()
	if rem != 0 || !q.Equal(Poly{1, 2}, 0) {
		t.Fatalf("DivideByX = %v rem %v", q, rem)
	}
	_, rem = Poly{3, 1}.DivideByX()
	if rem != 3 {
		t.Fatalf("remainder = %v, want 3", rem)
	}
}

func TestChebyshevKnown(t *testing.T) {
	cases := []struct {
		n    int
		want Poly
	}{
		{0, Poly{1}},
		{1, Poly{0, 1}},
		{2, Poly{-1, 0, 2}},
		{3, Poly{0, -3, 0, 4}},
		{4, Poly{1, 0, -8, 0, 8}},
	}
	for _, c := range cases {
		got := Chebyshev(c.n)
		if !got.Equal(c.want, 1e-14) {
			t.Fatalf("T_%d = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestChebyshevEquioscillation(t *testing.T) {
	// |T_n(x)| <= 1 on [-1,1] with T_n(1) = 1.
	for n := 1; n <= 8; n++ {
		tn := Chebyshev(n)
		lo, hi := tn.MinMaxOn(-1, 1, 2000)
		if hi > 1+1e-9 || lo < -1-1e-9 {
			t.Fatalf("T_%d range [%v, %v] escapes [-1,1]", n, lo, hi)
		}
		if math.Abs(tn.Eval(1)-1) > 1e-12 {
			t.Fatalf("T_%d(1) = %v", n, tn.Eval(1))
		}
	}
}

func TestMinMaxOn(t *testing.T) {
	// x² on [-1, 2]: min 0 at 0, max 4 at 2.
	lo, hi := Poly{0, 0, 1}.MinMaxOn(-1, 2, 3000)
	if math.Abs(lo) > 1e-6 || math.Abs(hi-4) > 1e-9 {
		t.Fatalf("MinMaxOn = [%v, %v]", lo, hi)
	}
}

func TestString(t *testing.T) {
	if s := (Poly{1, 0, -2}).String(); s == "" {
		t.Fatal("empty String")
	}
	if s := (Poly{}).String(); s != "0" {
		t.Fatalf("zero poly String = %q", s)
	}
}

// Property: Mul is consistent with Eval: (pq)(x) = p(x)q(x).
func TestMulEvalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPoly(rng, 1+rng.Intn(5))
		q := randPoly(rng, 1+rng.Intn(5))
		x := rng.NormFloat64()
		lhs := p.Mul(q).Eval(x)
		rhs := p.Eval(x) * q.Eval(x)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compose is consistent with Eval: (p∘q)(x) = p(q(x)).
func TestComposeEvalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randPoly(rng, 1+rng.Intn(4))
		q := randPoly(rng, 1+rng.Intn(3))
		x := rng.NormFloat64() * 0.5
		lhs := p.Compose(q).Eval(x)
		rhs := p.Eval(q.Eval(x))
		return math.Abs(lhs-rhs) <= 1e-8*(1+math.Abs(rhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randPoly(rng *rand.Rand, n int) Poly {
	p := make(Poly, n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return p
}
