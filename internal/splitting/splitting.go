// Package splitting implements the matrix splittings K = P − Q that
// generate the paper's m-step preconditioners (§2.1): the Jacobi splitting
// P = diag(K) (whose m-step preconditioner is the truncated Neumann series
// of Dubois, Greenbaum and Rodrigue), the natural-ordering SSOR splitting,
// and the 6-color multicolor SSOR splitting of §3 with the Conrad–Wallach
// auxiliary-vector trick (Algorithm 2).
//
// Every splitting exposes the parametrized stationary step
//
//	r̂ ← G·r̂ + α·P⁻¹·r,   G = P⁻¹Q = I − P⁻¹K,
//
// from which the m-step preconditioner application is
//
//	r̂⁽⁰⁾ = 0;  r̂⁽ˢ⁾ = G·r̂⁽ˢ⁻¹⁾ + α_{m−s}·P⁻¹·r,  s = 1..m,
//
// yielding r̂⁽ᵐ⁾ = (α₀I + α₁G + … + α_{m−1}G^{m−1})P⁻¹·r = M_m⁻¹·r.
//
// Every splitting also applies its symmetrized operator K̂ = W⁻¹KW⁻ᵀ, where
// P = WWᵀ, in one traversal of K: the form on which internal/eigen runs its
// Lanczos estimate of spec(P⁻¹K).
package splitting

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Splitting is a splitting K = P − Q exposing the parametrized stationary
// step. Implementations must be deterministic.
type Splitting interface {
	// N returns the system dimension.
	N() int
	// Name identifies the splitting in reports.
	Name() string
	// Step performs r̂ ← G·r̂ + α·P⁻¹·r in place. r is read-only and must
	// not alias r̂.
	Step(rhat, r []float64, alpha float64)
	// MulSymmetrized computes dst = K̂·x for the symmetrized operator
	// K̂ = W⁻¹KW⁻ᵀ, where P = WWᵀ. K̂ is symmetric, positive definite
	// exactly when K is, and has the spectrum of P⁻¹K, so plain CG on it is
	// the Lanczos process for P⁻¹K. It costs one traversal of K: Jacobi
	// scales one product, K̂ = D^−½KD^−½, and the SSOR splittings use
	// Eisenstat's form, one backward and one forward triangular sweep.
	// work is scratch of length N(); dst, x and work must not alias.
	// Unlike Step it touches no splitting state, so concurrent calls with
	// separate work are safe.
	MulSymmetrized(dst, x, work []float64)
}

// MStepApplier is an optional fast path: splittings that can fuse the m
// parametrized steps (eliding provably dead solves, as Algorithm 2 does for
// the multicolor SSOR splitting) implement it. The result must equal m
// sequential Step calls starting from r̂ = 0.
type MStepApplier interface {
	// ApplyMStep computes r̂ = M_m⁻¹·r where m = len(alphas) and
	// alphas[i] = αᵢ.
	ApplyMStep(rhat, r []float64, alphas []float64)
}

// MStepInterleavedApplier is the multi-right-hand-side fast path: one fused
// m-step sweep over the row-interleaved vec.IMulti panels of a whole block,
// dispatched through internal/kernel, so s right-hand sides cost one
// traversal of K's rows per half-sweep instead of s. Column j of the result
// must equal ApplyMStep on column j exactly (same arithmetic order), so
// block and single-vector solves agree bit for bit.
type MStepInterleavedApplier interface {
	// CanApplyMStepInterleaved reports whether the interleaved sweep is
	// available for this splitting's configuration (the multicolor SSOR's
	// fused elisions need ω = 1). Callers decide their block layout from
	// this before building interleaved workspace.
	CanApplyMStepInterleaved() bool
	// ApplyMStepInterleaved computes r̂_j = M_m⁻¹·r_j for every live column
	// of the panels, with m = len(alphas); impl selects the kernel set (nil
	// means the active one). rhat and r must share one stride.
	ApplyMStepInterleaved(rhat, r *vec.IMulti, alphas []float64, impl *kernel.Impl)
}

// Jacobi is the splitting P = diag(K): the m-step preconditioner it
// generates is the truncated (parametrized) Neumann series for K⁻¹.
type Jacobi struct {
	K    *sparse.CSR
	dinv []float64
	dis  []float64 // D^−½, for MulSymmetrized
	work []float64
}

// NewJacobi builds the Jacobi splitting. It returns an error if any
// diagonal entry is not strictly positive (K must be SPD).
func NewJacobi(k *sparse.CSR) (*Jacobi, error) {
	if k.Rows != k.Cols {
		return nil, fmt.Errorf("splitting: Jacobi needs a square matrix, got %d×%d", k.Rows, k.Cols)
	}
	d := k.Diag()
	dinv := make([]float64, len(d))
	dis := make([]float64, len(d))
	for i, di := range d {
		if di <= 0 {
			return nil, fmt.Errorf("splitting: Jacobi diagonal entry %d is %g (not positive)", i, di)
		}
		dinv[i] = 1 / di
		dis[i] = 1 / math.Sqrt(di)
	}
	return &Jacobi{K: k, dinv: dinv, dis: dis, work: make([]float64, k.Rows)}, nil
}

// N returns the system dimension.
func (j *Jacobi) N() int { return j.K.Rows }

// Name identifies the splitting.
func (j *Jacobi) Name() string { return "jacobi" }

// Step performs r̂ ← r̂ + D⁻¹(α·r − K·r̂).
func (j *Jacobi) Step(rhat, r []float64, alpha float64) {
	j.K.MulVecTo(j.work, rhat)
	dinv, work, r := j.dinv[:len(rhat)], j.work[:len(rhat)], r[:len(rhat)]
	for i := range rhat {
		rhat[i] += dinv[i] * (alpha*r[i] - work[i])
	}
}

// MulSymmetrized computes dst = D^−½·K·D^−½·x; it needs no work.
func (j *Jacobi) MulSymmetrized(dst, x, _ []float64) {
	k := j.K
	for i := 0; i < k.Rows; i++ {
		var sum float64
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			c := k.ColIdx[p]
			sum += k.Val[p] * (j.dis[c] * x[c])
		}
		dst[i] = j.dis[i] * sum
	}
}

// NaturalSSOR is the SSOR(ω) splitting in the matrix's stored (natural)
// ordering:
//
//	P_ω = 1/(ω(2−ω)) · (D − ωL) D⁻¹ (D − ωU),
//
// where K = D − L − U (eq. 2.1 of the paper; note L and U here carry the
// minus sign convention, i.e. they are the negated strict parts of K).
// With ω = 1 this is the plain SSOR splitting (D−L)D⁻¹(D−U) the paper uses.
type NaturalSSOR struct {
	K     *sparse.CSR
	d     []float64
	sd    []float64 // D^½, for MulSymmetrized
	dinv  []float64 // D⁻¹, for MulSymmetrized
	omega float64
}

// NewNaturalSSOR builds the natural-ordering SSOR splitting. ω must lie in
// (0, 2) for P to be positive definite; the diagonal must be positive.
func NewNaturalSSOR(k *sparse.CSR, omega float64) (*NaturalSSOR, error) {
	if k.Rows != k.Cols {
		return nil, fmt.Errorf("splitting: SSOR needs a square matrix, got %d×%d", k.Rows, k.Cols)
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("splitting: SSOR needs 0 < ω < 2, got %g", omega)
	}
	d := k.Diag()
	sd, dinv := make([]float64, len(d)), make([]float64, len(d))
	for i, di := range d {
		if di <= 0 {
			return nil, fmt.Errorf("splitting: SSOR diagonal entry %d is %g (not positive)", i, di)
		}
		sd[i], dinv[i] = math.Sqrt(di), 1/di
	}
	return &NaturalSSOR{K: k, d: d, sd: sd, dinv: dinv, omega: omega}, nil
}

// N returns the system dimension.
func (s *NaturalSSOR) N() int { return s.K.Rows }

// Name identifies the splitting.
func (s *NaturalSSOR) Name() string {
	if s.omega == 1 {
		return "ssor-natural"
	}
	return fmt.Sprintf("ssor-natural(ω=%g)", s.omega)
}

// Step performs one SSOR sweep (forward then backward SOR) with right-hand
// side α·r, the component form of r̂ ← G·r̂ + α·P_ω⁻¹·r.
func (s *NaturalSSOR) Step(rhat, r []float64, alpha float64) {
	k, w := s.K, s.omega
	n := k.Rows
	// Forward SOR sweep (ascending unknowns, in-place Gauss–Seidel style).
	for i := 0; i < n; i++ {
		var sum float64
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			j := k.ColIdx[p]
			if j != i {
				sum += k.Val[p] * rhat[j]
			}
		}
		gs := (alpha*r[i] - sum) / s.d[i]
		rhat[i] = (1-w)*rhat[i] + w*gs
	}
	// Backward SOR sweep.
	for i := n - 1; i >= 0; i-- {
		var sum float64
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			j := k.ColIdx[p]
			if j != i {
				sum += k.Val[p] * rhat[j]
			}
		}
		gs := (alpha*r[i] - sum) / s.d[i]
		rhat[i] = (1-w)*rhat[i] + w*gs
	}
}

// MulSymmetrized computes dst = K̂·x in Eisenstat's form. Writing
// K = D + L + U with L and U the strict triangles of K (the negated L and U
// of the type's doc), P_ω = WWᵀ with W = (D+ωL)D^−½/√(ω(2−ω)), and since
// (D+ωL) + (D+ωU) = ωK + (2−ω)D,
//
//	K̂x = (2−ω)·D^½·[t + (D+ωL)⁻¹(y − (2−ω)·D·t)],  y = D^½x, t = (D+ωU)⁻¹y:
//
// one backward sweep over U and one forward sweep over L.
func (s *NaturalSSOR) MulSymmetrized(dst, x, work []float64) {
	k, w := s.K, s.omega
	c := 2 - w
	// t = (D+ωU)⁻¹·D^½x into work, rows descending.
	for i := k.Rows - 1; i >= 0; i-- {
		var sum float64
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			if j := k.ColIdx[p]; j > i {
				sum += k.Val[p] * work[j]
			}
		}
		work[i] = (s.sd[i]*x[i] - w*sum) * s.dinv[i]
	}
	// z = (D+ωL)⁻¹(D^½x − (2−ω)·D·t) over t in work, rows ascending.
	for i := 0; i < k.Rows; i++ {
		var sum float64
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			if j := k.ColIdx[p]; j < i {
				sum += k.Val[p] * work[j]
			}
		}
		t := work[i]
		z := (s.sd[i]*x[i]-w*sum)*s.dinv[i] - c*t
		work[i] = z
		dst[i] = c * s.sd[i] * (t + z)
	}
}
