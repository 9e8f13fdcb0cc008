package eigen

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cg"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/splitting"
)

// Interval is an estimated spectral interval [Lo, Hi] for P⁻¹K, padded for
// safety so the true spectrum is (with high confidence) contained.
type Interval struct {
	Lo, Hi float64
}

// Validate reports whether the interval is usable for coefficient
// optimization.
func (iv Interval) Validate() error {
	if !(iv.Lo > 0) || !(iv.Hi > iv.Lo) {
		return fmt.Errorf("eigen: spectral interval [%g, %g] invalid (need 0 < lo < hi)", iv.Lo, iv.Hi)
	}
	return nil
}

const (
	// intervalRelTol is the relative residual at which the estimating PCG
	// run stops. By then the extreme Ritz values have converged to several
	// digits: a residual that small forces the CG polynomial to vanish near
	// both ends of the spectrum.
	intervalRelTol = 1e-6
	// intervalMaxIter caps the estimating run. Plates up to 100² converge
	// in under 400 iterations; the cap bounds the cost on systems that do
	// not. One iteration costs a product with K and one splitting step,
	// less than two applications of P⁻¹K = I − G.
	intervalMaxIter = 3000
)

// EstimateInterval estimates [λ₁, λₙ] ⊇ spec(P⁻¹K) for a splitting
// K = P − Q. It runs PCG on K·u = f with the one-step preconditioner P and
// a seeded N(0, 1) right-hand side f, and reads λ₁ and λₙ off the Lanczos
// tridiagonal the run records (CondFromCGStats). Ritz values lie inside
// the spectrum, so the interval is padded by `pad` relative (e.g. 0.02)
// outward on both ends.
//
// A PCG breakdown or a non-positive Ritz value means K or P is not SPD,
// and is reported as an error. For the SSOR(ω=1) splitting on an SPD
// matrix the spectrum lies in (0, 1]; this function stays
// splitting-agnostic and does not cap Hi there.
func EstimateInterval(sp splitting.Splitting, pad float64, seed int64) (Interval, error) {
	n := sp.N()
	if n == 0 {
		return Interval{}, fmt.Errorf("eigen: empty system")
	}
	if pad < 0 {
		return Interval{}, fmt.Errorf("eigen: negative pad %g", pad)
	}
	p, err := precond.NewMStep(sp, poly.Ones(1))
	if err != nil {
		return Interval{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	_, st, err := cg.Solve(sp.Matrix(), f, p, cg.Options{RelResidualTol: intervalRelTol, MaxIter: intervalMaxIter})
	if err != nil && !errors.Is(err, cg.ErrMaxIterations) {
		// Running out of iterations still leaves valid (interior) Ritz
		// values; a breakdown does not.
		return Interval{}, fmt.Errorf("eigen: %s spectral estimate: %w", sp.Name(), err)
	}
	lo, hi, _, err := CondFromCGStats(st)
	if err != nil {
		return Interval{}, err
	}
	if lo <= 0 {
		// Without a breakdown every CG pivot is positive and so is the
		// tridiagonal; this catches a λmin lost in rounding (K or P
		// numerically singular).
		return Interval{}, fmt.Errorf("eigen: estimated λmin(P⁻¹K) = %g not positive — K or P not SPD", lo)
	}
	iv := Interval{Lo: lo * (1 - pad), Hi: hi * (1 + pad)}
	return iv, iv.Validate()
}
