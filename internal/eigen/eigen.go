// Package eigen estimates the spectral quantities the paper's method
// needs: the interval [λ₁, λₙ] containing the eigenvalues of P⁻¹K (the
// domain on which the parametrized coefficients are optimized, §2.2) and
// the condition number κ(M_m⁻¹K) whose decrease with m is the paper's §2.1
// claim.
//
// Both come from one source: the Lanczos tridiagonal matrix recovered from
// a CG run's coefficients, whose extreme eigenvalues (found by
// Sturm-sequence bisection) are the "condition estimate for free" of a CG
// run. PCG with M is Lanczos for M⁻¹K in M's inner product, in which M⁻¹K
// is self-adjoint, so these Ritz values lie inside its spectrum.
//
// The interval estimate (EstimateInterval) runs that Lanczos process as
// plain CG on the symmetrized operator K̂ = W⁻¹KW⁻ᵀ of a splitting with
// P = WWᵀ, which has the spectrum of P⁻¹K and costs one traversal of K per
// iteration (splitting.Splitting.MulSymmetrized). It stops as soon as the
// extreme Ritz values have settled: a ritzTracker extends the tridiagonal
// as the run records α and β, and once the relative residual is below
// 1e-2 it checks every 3 iterations, with two Sturm counts, whether either
// extreme moved by more than 2e-4 relative since the last check.
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

// gershgorin returns the Gershgorin bounds of a symmetric tridiagonal
// matrix: every eigenvalue lies in [lo, hi].
func gershgorin(diag, offdiag []float64) (lo, hi float64) {
	n := len(diag)
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(offdiag[i-1])
		}
		if i < n-1 {
			r += math.Abs(offdiag[i])
		}
		lo = math.Min(lo, diag[i]-r)
		hi = math.Max(hi, diag[i]+r)
	}
	return lo, hi
}

// bisect narrows [a, b], with fewer than target eigenvalues of the
// tridiagonal below a and at least target below b, to the target-th
// smallest eigenvalue. It halves the bracket while wide(a, b) holds and
// the midpoint lies strictly between the endpoints (once no float does,
// halving cannot progress), and returns the midpoint.
func bisect(diag, offdiag []float64, target int, a, b float64, wide func(a, b float64) bool) float64 {
	for wide(a, b) {
		mid := (a + b) / 2
		if mid == a || mid == b {
			break
		}
		if SturmCount(diag, offdiag, mid) >= target {
			b = mid
		} else {
			a = mid
		}
	}
	return (a + b) / 2
}

// TridiagExtremes returns the smallest and largest eigenvalues of a
// symmetric tridiagonal matrix by Sturm bisection, to absolute tolerance
// 1e-13·(1 + Gershgorin width), or to one ulp where that is finer.
func TridiagExtremes(diag, offdiag []float64) (lo, hi float64, err error) {
	n := len(diag)
	if n == 0 {
		return 0, 0, fmt.Errorf("eigen: empty tridiagonal")
	}
	if len(offdiag) != n-1 {
		return 0, 0, fmt.Errorf("eigen: offdiag length %d, want %d", len(offdiag), n-1)
	}
	glo, ghi := gershgorin(diag, offdiag)
	tol := 1e-13 * (1 + ghi - glo)
	wide := func(a, b float64) bool { return b-a > tol }
	lo = bisect(diag, offdiag, 1, glo, ghi, wide) // smallest eigenvalue: first x with count >= 1
	hi = bisect(diag, offdiag, n, glo, ghi, wide) // largest: first x with count >= n
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
