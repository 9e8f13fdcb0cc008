// Package eigen estimates the spectral quantities the paper's method
// needs: the interval [λ₁, λₙ] containing the eigenvalues of P⁻¹K (the
// domain on which the parametrized coefficients are optimized, §2.2) and
// the condition number κ(M_m⁻¹K) whose decrease with m is the paper's §2.1
// claim.
//
// Both come from one source: the Lanczos tridiagonal matrix recovered from
// a PCG run's coefficients, whose extreme eigenvalues (found by
// Sturm-sequence bisection) are the "condition estimate for free" of a CG
// run. PCG is Lanczos in the preconditioner's inner product, in which the
// preconditioned operator is self-adjoint, so these Ritz values lie inside
// its spectrum.
package eigen

import (
	"fmt"
	"math"

	"repro/internal/cg"
)

// SturmCount returns the number of eigenvalues of the symmetric tridiagonal
// matrix (diag, offdiag) that are strictly less than x.
func SturmCount(diag, offdiag []float64, x float64) int {
	count := 0
	q := 1.0
	for i := range diag {
		var e2 float64
		if i > 0 {
			e2 = offdiag[i-1] * offdiag[i-1]
		}
		if q == 0 {
			// Standard guard: treat a vanishing pivot as a tiny value.
			q = 1e-300
		}
		q = diag[i] - x - e2/q
		if q < 0 {
			count++
		}
	}
	return count
}

// TridiagExtremes returns the smallest and largest eigenvalues of a
// symmetric tridiagonal matrix by Sturm bisection, to absolute tolerance
// tol (default 1e-12 of the Gershgorin width).
func TridiagExtremes(diag, offdiag []float64) (lo, hi float64, err error) {
	n := len(diag)
	if n == 0 {
		return 0, 0, fmt.Errorf("eigen: empty tridiagonal")
	}
	if len(offdiag) != n-1 {
		return 0, 0, fmt.Errorf("eigen: offdiag length %d, want %d", len(offdiag), n-1)
	}
	// Gershgorin bounds.
	glo, ghi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(offdiag[i-1])
		}
		if i < n-1 {
			r += math.Abs(offdiag[i])
		}
		glo = math.Min(glo, diag[i]-r)
		ghi = math.Max(ghi, diag[i]+r)
	}
	tol := 1e-13 * (1 + ghi - glo)
	bisect := func(target int) float64 {
		a, b := glo, ghi
		for b-a > tol {
			mid := (a + b) / 2
			if SturmCount(diag, offdiag, mid) >= target {
				b = mid
			} else {
				a = mid
			}
		}
		return (a + b) / 2
	}
	lo = bisect(1) // smallest eigenvalue: first x with count >= 1
	hi = bisect(n) // largest: first x with count >= n
	return lo, hi, nil
}

// CondFromCGStats estimates (λmin, λmax, κ) of the preconditioned operator
// M⁻¹K from a finished CG run via its Lanczos tridiagonal. The estimate
// sharpens as the run takes more iterations; for well-converged runs it is
// accurate to several digits.
func CondFromCGStats(st cg.Stats) (lambdaMin, lambdaMax, kappa float64, err error) {
	diag, off := cg.LanczosTridiagonal(st)
	if len(diag) == 0 {
		return 0, 0, 0, fmt.Errorf("eigen: CG run recorded no coefficients")
	}
	lo, hi, err := TridiagExtremes(diag, off)
	if err != nil {
		return 0, 0, 0, err
	}
	if lo <= 0 {
		return lo, hi, math.Inf(1), nil
	}
	return lo, hi, hi / lo, nil
}
