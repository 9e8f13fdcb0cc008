// Package poly implements the polynomial machinery behind the parametrized
// m-step preconditioner of Adams (1983), §2.2.
//
// The m-step preconditioner for a splitting K = P − Q with G = P⁻¹Q is
//
//	M_m⁻¹ = (α₀ I + α₁ G + … + α_{m−1} G^{m−1}) P⁻¹.
//
// Writing λ for an eigenvalue of P⁻¹K (so 1−λ is the matching eigenvalue of
// G), the eigenvalues of M_m⁻¹K are q(λ) with
//
//	q(λ) = λ · Σ_{i<m} αᵢ (1−λ)ⁱ.
//
// The coefficients αᵢ are chosen so q ≈ 1 on an interval [λ₁, λₙ] containing
// the spectrum of P⁻¹K, either in the continuous least-squares sense
// (Johnson–Micchelli–Paul, the paper's Table 1) or the Chebyshev min-max
// sense. This package provides exact polynomial arithmetic, exact
// integration for the least-squares normal equations, and the Chebyshev
// construction.
package poly

import (
	"fmt"
	"math"
)

// Poly is a polynomial in the power basis: Poly{c0, c1, c2} = c0 + c1·x + c2·x².
// The zero-length Poly is the zero polynomial.
type Poly []float64

// Trim removes trailing (near-)zero leading coefficients.
func (p Poly) Trim() Poly {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// Eval evaluates p at x by Horner's rule.
func (p Poly) Eval(x float64) float64 {
	var s float64
	for i := len(p) - 1; i >= 0; i-- {
		s = s*x + p[i]
	}
	return s
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := max(len(p), len(q))
	out := make(Poly, n)
	copy(out, p)
	for i, qi := range q {
		out[i] += qi
	}
	return out
}

// Sub returns p − q.
func (p Poly) Sub(q Poly) Poly {
	n := max(len(p), len(q))
	out := make(Poly, n)
	copy(out, p)
	for i, qi := range q {
		out[i] -= qi
	}
	return out
}

// Scale returns a·p.
func (p Poly) Scale(a float64) Poly {
	out := make(Poly, len(p))
	for i, pi := range p {
		out[i] = a * pi
	}
	return out
}

// Mul returns p·q.
func (p Poly) Mul(q Poly) Poly {
	if len(p) == 0 || len(q) == 0 {
		return Poly{}
	}
	out := make(Poly, len(p)+len(q)-1)
	for i, pi := range p {
		if pi == 0 {
			continue
		}
		for j, qj := range q {
			out[i+j] += pi * qj
		}
	}
	return out
}

// Compose returns p(q(x)).
func (p Poly) Compose(q Poly) Poly {
	out := Poly{}
	for i := len(p) - 1; i >= 0; i-- {
		out = out.Mul(q).Add(Poly{p[i]})
	}
	return out
}

// AntiDeriv returns the antiderivative with zero constant term.
func (p Poly) AntiDeriv() Poly {
	out := make(Poly, len(p)+1)
	for i, pi := range p {
		out[i+1] = pi / float64(i+1)
	}
	return out
}

// Integrate returns ∫ₐᵇ p(x) dx exactly (up to roundoff).
func (p Poly) Integrate(a, b float64) float64 {
	ad := p.AntiDeriv()
	return ad.Eval(b) - ad.Eval(a)
}

// DivideByX returns p/x and the remainder p(0). The division is exact when
// p(0) = 0.
func (p Poly) DivideByX() (quot Poly, rem float64) {
	if len(p) == 0 {
		return Poly{}, 0
	}
	return append(Poly{}, p[1:]...), p[0]
}

// OneMinusX is the polynomial 1 − x, the eigenvalue map λ ↦ 1−λ from P⁻¹K
// to G = I − P⁻¹K.
var OneMinusX = Poly{1, -1}

// Chebyshev returns the degree-n Chebyshev polynomial of the first kind Tₙ
// in the power basis, built from the recurrence T₀=1, T₁=x,
// T_{k+1} = 2x·T_k − T_{k−1}.
func Chebyshev(n int) Poly {
	if n < 0 {
		panic(fmt.Sprintf("poly: Chebyshev degree %d < 0", n))
	}
	t0, t1 := Poly{1}, Poly{0, 1}
	if n == 0 {
		return t0
	}
	for k := 1; k < n; k++ {
		t2 := t1.Mul(Poly{0, 2}).Sub(t0)
		t0, t1 = t1, t2
	}
	return t1
}

// MinMaxOn samples p on [a, b] at `samples` evenly spaced points (plus the
// endpoints) and returns the observed minimum and maximum. With the smooth
// low-degree polynomials used here and samples ≥ 1000 this is accurate to
// plotting precision, which is all the validation code needs.
func (p Poly) MinMaxOn(a, b float64, samples int) (lo, hi float64) {
	if samples < 2 {
		samples = 2
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i <= samples; i++ {
		x := a + (b-a)*float64(i)/float64(samples)
		v := p.Eval(x)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Equal reports whether p and q agree coefficientwise within tol after
// trimming.
func (p Poly) Equal(q Poly, tol float64) bool {
	pt, qt := p.Trim(), q.Trim()
	n := max(len(pt), len(qt))
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(pt) {
			a = pt[i]
		}
		if i < len(qt) {
			b = qt[i]
		}
		if math.Abs(a-b) > tol {
			return false
		}
	}
	return true
}

func (p Poly) String() string {
	t := p.Trim()
	if len(t) == 0 {
		return "0"
	}
	s := ""
	for i := len(t) - 1; i >= 0; i-- {
		if t[i] == 0 {
			continue
		}
		if s != "" {
			s += " + "
		}
		switch i {
		case 0:
			s += fmt.Sprintf("%g", t[i])
		case 1:
			s += fmt.Sprintf("%g·x", t[i])
		default:
			s += fmt.Sprintf("%g·x^%d", t[i], i)
		}
	}
	return s
}
