package eigen

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cg"
	"repro/internal/splitting"
	"repro/internal/vec"
)

// Interval is a spectral interval [Lo, Hi] for P⁻¹K that contains its
// spectrum: either an estimate padded for safety (EstimateInterval), so the
// true spectrum is contained with high confidence, or a bound known from
// the splitting (the SSOR bound core.IntervalFor fits least squares on).
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
	// intervalRelTol is the relative residual at which the estimating run
	// stops if its extreme Ritz values have not settled before: a residual
	// that small forces the CG polynomial to vanish near both ends of the
	// spectrum, so both extremes have converged to several digits.
	intervalRelTol = 1e-6
	// intervalMaxIter caps the estimating run. Plates up to 100² settle in
	// under 400 iterations; the cap bounds the cost on systems that do
	// not. One iteration costs one application of K̂, a single traversal of
	// K, where PCG with P paid a product with K and a splitting step: two
	// traversals.
	intervalMaxIter = 3000
)

// EstimateInterval estimates [λ₁, λₙ] ⊇ spec(P⁻¹K) for a splitting
// K = P − Q. It runs plain CG, the Lanczos process, on the symmetrized
// operator K̂ = W⁻¹KW⁻ᵀ (P = WWᵀ, splitting.Splitting.MulSymmetrized),
// which has the spectrum of P⁻¹K and costs one traversal of K per
// iteration, from a seeded N(0, 1) right-hand side. The run stops once the
// extreme Ritz values have settled (ritzTracker: from relative residual
// 1e-2 on, checked every 3 iterations, neither end moved by more than
// 2e-4 relative since the last check), with relative residual 1e-6 and
// 3,000 iterations as backstops. λ₁ and λₙ are read off the Lanczos
// tridiagonal the run records (CondFromCGStats). Ritz values lie inside
// the spectrum, so the interval is padded by `pad` relative (e.g. 0.02)
// outward on both ends.
//
// A CG breakdown or a non-positive Ritz value means K̂, and so K or P, is
// not SPD, and is reported as an error. This function stays
// splitting-agnostic and does not cap Hi at 1 for SSOR, whose spectrum
// lies in (0, 1]; core.IntervalFor decides where a caller skips the
// estimate for that bound instead.
func EstimateInterval(sp splitting.Splitting, pad float64, seed int64) (Interval, error) {
	n := sp.N()
	if n == 0 {
		return Interval{}, fmt.Errorf("eigen: empty system")
	}
	if pad < 0 {
		return Interval{}, fmt.Errorf("eigen: negative pad %g", pad)
	}
	rng := rand.New(rand.NewSource(seed))
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	var tr ritzTracker
	op := symmetrized{sp: sp, work: make([]float64, n)}
	_, st, err := cg.Solve(op, f, nil, cg.Options{RelResidualTol: intervalRelTol, MaxIter: intervalMaxIter, StopWhen: tr.settled})
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

// symmetrized is a splitting's K̂ as a cg.Operator. Its block product
// applies K̂ column by column; the estimate only ever runs one column.
type symmetrized struct {
	sp   splitting.Splitting
	work []float64
}

func (o symmetrized) Dims() (rows, cols int) { return o.sp.N(), o.sp.N() }

func (o symmetrized) ParMulVecTo(dst, x []float64, _ int) { o.sp.MulSymmetrized(dst, x, o.work) }

func (o symmetrized) ParMulMatTo(dst, x *vec.Multi, _ int) {
	for j := 0; j < x.S; j++ {
		o.sp.MulSymmetrized(dst.Col(j), x.Col(j), o.work)
	}
}
