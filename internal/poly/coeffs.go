package poly

import (
	"fmt"
	"math"

	"repro/internal/la"
)

// Alphas holds the coefficients α₀..α_{m−1} of a parametrized m-step
// preconditioner together with the interval they were computed for.
type Alphas struct {
	Coeffs []float64 // α₀ .. α_{m−1}
	Lo, Hi float64   // interval [λ₁, λₙ] targeted
	Kind   string    // "ones", "least-squares", "chebyshev"
}

// M returns the number of steps m = len(Coeffs).
func (a Alphas) M() int { return len(a.Coeffs) }

// Ones returns the unparametrized coefficients (αᵢ = 1), under which the
// m-step preconditioner is plain m steps of the stationary method:
// q(λ) = 1 − (1−λ)^m.
func Ones(m int) Alphas {
	if m < 1 {
		panic(fmt.Sprintf("poly: Ones needs m >= 1, got %d", m))
	}
	c := make([]float64, m)
	for i := range c {
		c[i] = 1
	}
	return Alphas{Coeffs: c, Lo: 0, Hi: 1, Kind: "ones"}
}

// Q returns q(λ) = λ · Σ αᵢ (1−λ)ⁱ, the polynomial whose values at the
// eigenvalues of P⁻¹K are the eigenvalues of the preconditioned matrix
// M_m⁻¹K.
func (a Alphas) Q() Poly {
	q := Poly{}
	basis := Poly{1} // (1−λ)ⁱ
	for _, ai := range a.Coeffs {
		q = q.Add(basis.Scale(ai))
		basis = basis.Mul(OneMinusX)
	}
	return Poly{0, 1}.Mul(q) // multiply by λ
}

// ConditionBound returns the bound κ(M_m⁻¹K) ≤ max q / min q over [lo, hi].
// It returns +Inf if q is not strictly positive on the interval (the
// preconditioner would not be positive definite there).
func (a Alphas) ConditionBound(lo, hi float64) float64 {
	qlo, qhi := a.Q().MinMaxOn(lo, hi, 4000)
	if qlo <= 0 {
		return math.Inf(1)
	}
	return qhi / qlo
}

// PositiveOn reports whether q(λ) > 0 for all λ in [lo, hi] (sampled), the
// paper's §2.2 requirement for M_m to be positive definite.
func (a Alphas) PositiveOn(lo, hi float64) bool {
	qlo, _ := a.Q().MinMaxOn(lo, hi, 4000)
	return qlo > 0
}

// LeastSquares computes the α minimizing ∫_{lo}^{hi} (1 − q(λ))² dλ with
// q(λ) = λ Σ αᵢ(1−λ)ⁱ, the Johnson–Micchelli–Paul least-squares criterion
// the paper uses for Table 1. The normal equations are formed with exact
// polynomial integration and solved densely.
func LeastSquares(m int, lo, hi float64) (Alphas, error) {
	return LeastSquaresWeighted(m, lo, hi, Poly{1})
}

// LeastSquaresStableM is the largest step count whose least-squares fit is
// well conditioned (see the Gram matrix in LeastSquaresWeighted): the
// m ≈ 10 the paper sweeps. Past it the fitted α carry rounding noise that
// depends on the interval's ends, down to its lower one.
const LeastSquaresStableM = 10

// LeastSquaresWeighted minimizes ∫ w(λ)·(1 − q(λ))² dλ for a polynomial
// weight w ≥ 0 on [lo, hi]. Johnson, Micchelli and Paul consider the
// weights w(λ) = λ^μ; w = λ (Poly{0, 1}) emphasizes the upper end of the
// spectrum and corresponds to error minimization in the K̂-energy norm.
func LeastSquaresWeighted(m int, lo, hi float64, weight Poly) (Alphas, error) {
	if m < 1 {
		return Alphas{}, fmt.Errorf("poly: LeastSquares needs m >= 1, got %d", m)
	}
	if !(lo < hi) || lo < 0 {
		return Alphas{}, fmt.Errorf("poly: LeastSquares needs 0 <= lo < hi, got [%g, %g]", lo, hi)
	}
	if len(weight.Trim()) == 0 {
		return Alphas{}, fmt.Errorf("poly: zero weight polynomial")
	}
	if wlo, _ := weight.MinMaxOn(lo, hi, 2000); wlo < 0 {
		return Alphas{}, fmt.Errorf("poly: weight is negative on [%g, %g]", lo, hi)
	}
	// Optimize q(λ) = λ·p(λ) with p expressed in the Chebyshev basis of
	// [lo, hi]: φᵢ(λ) = λ·Tᵢ(s(λ)), s(λ) = (2λ−hi−lo)/(hi−lo). The Gram
	// matrix in this basis stays well conditioned up to the m ≈ 10 the
	// paper sweeps (LeastSquaresStableM), unlike the Hilbert-like
	// (1−λ)-power basis.
	s := Poly{-(hi + lo) / (hi - lo), 2 / (hi - lo)}
	basis := make([]Poly, m)
	for i := 0; i < m; i++ {
		basis[i] = Poly{0, 1}.Mul(Chebyshev(i).Compose(s))
	}
	// Gram matrix Aᵢⱼ = ∫ w·φᵢφⱼ, rhs cᵢ = ∫ w·φᵢ·1 (exact integration).
	A := la.NewMatrix(m, m)
	c := make([]float64, m)
	for i := 0; i < m; i++ {
		c[i] = weight.Mul(basis[i]).Integrate(lo, hi)
		for j := i; j < m; j++ {
			v := weight.Mul(basis[i].Mul(basis[j])).Integrate(lo, hi)
			A.Set(i, j, v)
			A.Set(j, i, v)
		}
	}
	coef, err := la.Solve(A, c)
	if err != nil {
		return Alphas{}, fmt.Errorf("poly: least-squares normal equations: %w", err)
	}
	// p(λ) = Σ coefᵢ·Tᵢ(s(λ)) in the power basis, then α from
	// Σ αᵢ(1−λ)ⁱ = p(λ) by composing with 1−t.
	p := Poly{}
	for i := 0; i < m; i++ {
		p = p.Add(Chebyshev(i).Compose(s).Scale(coef[i]))
	}
	alphaPoly := p.Compose(OneMinusX)
	alpha := make([]float64, m)
	copy(alpha, alphaPoly)
	return Alphas{Coeffs: alpha, Lo: lo, Hi: hi, Kind: "least-squares"}, nil
}

// ChebyshevMinMax computes the α minimizing max_{[lo,hi]} |1 − q(λ)| —
// the min-max criterion of §2.2. The optimal residual is the scaled shifted
// Chebyshev polynomial
//
//	1 − q(λ) = T_m(μ(λ)) / T_m(μ₀),  μ(λ) = (hi+lo−2λ)/(hi−lo),  μ₀ = μ(0),
//
// which satisfies q(0) = 0 exactly, so q/λ is a polynomial of degree m−1
// and converts to the (1−λ)-power basis by composition.
func ChebyshevMinMax(m int, lo, hi float64) (Alphas, error) {
	if m < 1 {
		return Alphas{}, fmt.Errorf("poly: ChebyshevMinMax needs m >= 1, got %d", m)
	}
	if !(0 < lo && lo < hi) {
		return Alphas{}, fmt.Errorf("poly: ChebyshevMinMax needs 0 < lo < hi, got [%g, %g]", lo, hi)
	}
	tm := Chebyshev(m)
	// μ(λ) = (hi+lo)/(hi−lo) − 2/(hi−lo)·λ
	mu := Poly{(hi + lo) / (hi - lo), -2 / (hi - lo)}
	mu0 := mu.Eval(0)
	denom := tm.Eval(mu0)
	r := tm.Compose(mu).Scale(1 / denom) // residual polynomial, r(0) = 1
	q := Poly{1}.Sub(r)                  // q(0) = 0
	p, rem := q.DivideByX()
	if math.Abs(rem) > 1e-9 {
		return Alphas{}, fmt.Errorf("poly: Chebyshev construction lost q(0)=0: remainder %g", rem)
	}
	// p is in powers of λ; we need Σ αᵢ(1−λ)ⁱ = p(λ), i.e. α are the power
	// coefficients of p(1−t).
	alphaPoly := p.Compose(OneMinusX)
	alpha := make([]float64, m)
	copy(alpha, alphaPoly)
	return Alphas{Coeffs: alpha, Lo: lo, Hi: hi, Kind: "chebyshev"}, nil
}

// PaperTable1 returns the α values printed in the paper's Table 1 for the
// m-step SSOR PCG method (m = 2, 3, 4), as archived in the NASA report.
// They are reproduced verbatim for comparison output; our own least-squares
// solve over the estimated spectral interval is what the solver actually
// uses.
func PaperTable1() map[int][]float64 {
	return map[int][]float64{
		2: {1.00, 5.00},
		3: {1.00, -2.00, 15.00},
		4: {1.00, 7.00, -24.50, 31.50},
	}
}
