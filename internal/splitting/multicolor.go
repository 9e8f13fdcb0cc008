package splitting

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// SixColorSSOR is the multicolor SSOR splitting of the paper's §3
// (Algorithm 2): the matrix is in the 6-color ordering of eq. (3.1), where
// each color group's diagonal block is a diagonal matrix, so a Gauss–Seidel
// sweep over unknowns in ascending order is exactly a sweep over the six
// colors — every color solve is an independent (vectorizable / fully
// parallel) diagonal solve.
//
// The m-step application uses the Conrad–Wallach auxiliary vector y to
// cache the one-sided block sums between half-sweeps, making the m-step
// SSOR preconditioner only as expensive per step as one multicolor SOR
// sweep, and elides the provably dead backward color-1 solves of the
// intermediate steps (the paper defers that solve to its final step (3)).
type SixColorSSOR struct {
	K     *sparse.CSR
	Start []int // group boundaries: group c spans [Start[c], Start[c+1])
	d     []float64
	sd    []float64 // D^½, for MulSymmetrized
	dinv  []float64 // D⁻¹, for MulSymmetrized
	y     []float64 // Conrad–Wallach cache, one value per unknown per column swept
	omega float64
	ka    kernel.SweepArgs // matrix-side sweep arguments, built once; each application sets only Alphas
}

// NewSixColorSSOR builds the multicolor SSOR splitting (ω = 1, the paper's
// choice) from a matrix in multicolor ordering with group boundaries start
// (len = numGroups+1, start[0] = 0, start[end] = n). It verifies the
// multicolor decoupling: within a group, off-diagonal entries must be
// absent.
func NewSixColorSSOR(k *sparse.CSR, start []int) (*SixColorSSOR, error) {
	return NewMulticolorSSOR(k, start, 1)
}

// NewMulticolorSSOR builds the multicolor SSOR(ω) splitting. The group
// count is arbitrary (6 for the paper's plate; 2k for a k-coloring of a
// general mesh). ω must lie in (0, 2). Note the Conrad–Wallach elisions of
// Algorithm 2 are exact only at ω = 1; other ω values use strict sweeps.
func NewMulticolorSSOR(k *sparse.CSR, start []int, omega float64) (*SixColorSSOR, error) {
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("splitting: multicolor SSOR needs 0 < ω < 2, got %g", omega)
	}
	if k.Rows != k.Cols {
		return nil, fmt.Errorf("splitting: multicolor SSOR needs a square matrix, got %d×%d", k.Rows, k.Cols)
	}
	if len(start) < 2 || start[0] != 0 || start[len(start)-1] != k.Rows {
		return nil, fmt.Errorf("splitting: group boundaries %v do not cover [0,%d]", start, k.Rows)
	}
	for c := 1; c < len(start); c++ {
		if start[c] < start[c-1] {
			return nil, fmt.Errorf("splitting: group boundaries %v not nondecreasing", start)
		}
	}
	d := k.Diag()
	sd, dinv := make([]float64, len(d)), make([]float64, len(d))
	for i, di := range d {
		if di <= 0 {
			return nil, fmt.Errorf("splitting: multicolor SSOR diagonal entry %d is %g (not positive)", i, di)
		}
		sd[i], dinv[i] = math.Sqrt(di), 1/di
	}
	s := &SixColorSSOR{K: k, Start: append([]int{}, start...), d: d, sd: sd, dinv: dinv, y: make([]float64, k.Rows), omega: omega}
	pos, err := s.diagPositions()
	if err != nil {
		return nil, err
	}
	s.ka = kernel.SweepArgs{
		RowPtr:  k.RowPtr,
		ColIdx:  k.ColIdx,
		Val:     k.Val,
		Start:   s.Start,
		Diag:    d,
		DiagPos: pos,
	}
	return s, nil
}

// diagPositions checks that every within-group entry is on the main
// diagonal — the property the multicolor ordering guarantees and the color
// sweeps rely on — and returns each row's diagonal entry position. With
// sorted columns and the diagonal a row's only within-group entry, that
// position splits the row into its lower block sum (entries before it, all
// in earlier groups) and its upper block sum (entries after it, all in
// later groups).
func (s *SixColorSSOR) diagPositions() ([]int, error) {
	pos := make([]int, s.K.Rows)
	for c := 0; c+1 < len(s.Start); c++ {
		lo, hi := s.Start[c], s.Start[c+1]
		for i := lo; i < hi; i++ {
			for p := s.K.RowPtr[i]; p < s.K.RowPtr[i+1]; p++ {
				j := s.K.ColIdx[p]
				if j == i {
					pos[i] = p
				} else if j >= lo && j < hi {
					return nil, fmt.Errorf("splitting: group %d not decoupled: entry (%d,%d) within group", c, i, j)
				}
			}
		}
	}
	return pos, nil
}

// N returns the system dimension.
func (s *SixColorSSOR) N() int { return s.K.Rows }

// Name identifies the splitting.
func (s *SixColorSSOR) Name() string {
	if s.omega == 1 {
		return "ssor-multicolor"
	}
	return fmt.Sprintf("ssor-multicolor(ω=%g)", s.omega)
}

// numGroups returns the number of color groups.
func (s *SixColorSSOR) numGroups() int { return len(s.Start) - 1 }

// lowerSum returns −Σ_{j < Start[c]} K_{ij}·r̂_j for row i of group c, the
// forward-sweep block sum x of Algorithm 2: the entries before the row's
// diagonal, ascending.
func (s *SixColorSSOR) lowerSum(i int, rhat []float64) float64 {
	var sum float64
	for p, dp := s.K.RowPtr[i], s.ka.DiagPos[i]; p < dp; p++ {
		sum += s.K.Val[p] * rhat[s.K.ColIdx[p]]
	}
	return -sum
}

// upperSum returns −Σ_{j ≥ Start[c+1]} K_{ij}·r̂_j for row i of group c,
// the backward-sweep block sum: the entries after the row's diagonal,
// descending.
func (s *SixColorSSOR) upperSum(i int, rhat []float64) float64 {
	var sum float64
	for p, dp := s.K.RowPtr[i+1]-1, s.ka.DiagPos[i]; p > dp; p-- {
		sum += s.K.Val[p] * rhat[s.K.ColIdx[p]]
	}
	return -sum
}

// Step performs one strict SSOR(ω=1) sweep r̂ ← G·r̂ + α·P⁻¹·r from an
// arbitrary r̂: a forward color sweep (colors ascending) followed by a
// backward color sweep (descending). This is the reference implementation;
// ApplyMStep is the fused Conrad–Wallach path.
func (s *SixColorSSOR) Step(rhat, r []float64, alpha float64) {
	ng := s.numGroups()
	w := s.omega
	for c := 0; c < ng; c++ {
		lo, hi := s.Start[c], s.Start[c+1]
		for i := lo; i < hi; i++ {
			x := s.lowerSum(i, rhat)
			u := s.upperSum(i, rhat)
			rhat[i] = (1-w)*rhat[i] + w*(x+u+alpha*r[i])/s.d[i]
		}
	}
	for c := ng - 1; c >= 0; c-- {
		lo, hi := s.Start[c], s.Start[c+1]
		for i := lo; i < hi; i++ {
			x := s.lowerSum(i, rhat)
			u := s.upperSum(i, rhat)
			rhat[i] = (1-w)*rhat[i] + w*(x+u+alpha*r[i])/s.d[i]
		}
	}
}

// MulSymmetrized computes dst = K̂·x in Eisenstat's form, exactly as
// NaturalSSOR.MulSymmetrized does in the colored ordering: the backward
// solve with D+ωU is a color sweep descending over the upper block sums,
// and the forward solve with D+ωL a color sweep ascending over the lower
// ones, so the two touch each entry of K once.
func (s *SixColorSSOR) MulSymmetrized(dst, x, work []float64) {
	n, w, c := s.K.Rows, s.omega, 2-s.omega
	rowPtr, col, val, pos := s.K.RowPtr[:n+1], s.K.ColIdx, s.K.Val, s.ka.DiagPos[:n]
	sd, dinv, x, dst, work := s.sd[:n], s.dinv[:n], x[:n], dst[:n], work[:n]
	// t = (D+ωU)⁻¹·D^½x into work: colors descending, upper block sums.
	for i := n - 1; i >= 0; i-- {
		lo, hi := pos[i]+1, rowPtr[i+1]
		var sum float64
		for q, v := range val[lo:hi] {
			sum += v * work[col[lo+q]]
		}
		work[i] = (sd[i]*x[i] - w*sum) * dinv[i]
	}
	// z = (D+ωL)⁻¹(D^½x − (2−ω)·D·t) over t in work: colors ascending,
	// lower block sums; then K̂x = (2−ω)·D^½·(t + z).
	for i := 0; i < n; i++ {
		lo, hi := rowPtr[i], pos[i]
		var sum float64
		for q, v := range val[lo:hi] {
			sum += v * work[col[lo+q]]
		}
		t := work[i]
		z := (sd[i]*x[i]-w*sum)*dinv[i] - c*t
		work[i] = z
		dst[i] = c * sd[i] * (t + z)
	}
}

// ApplyMStep computes r̂ = M_m⁻¹·r with m = len(alphas) fused steps
// (Algorithm 2 / Algorithm 3 of the paper):
//
//   - the Conrad–Wallach vector y caches the lower block sums from the
//     forward half-sweep for reuse in the backward half-sweep and the upper
//     sums from the backward half-sweep for the next forward half-sweep, so
//     each half-sweep touches only one triangle of K;
//   - the backward sweep skips the last color (its re-solve is identical to
//     the forward solve just performed);
//   - the backward color-1 solve is elided on steps 1..m−1 (its result is
//     provably dead: the next forward color-1 solve overwrites it without
//     reading it) and performed only on the final step — the paper's
//     trailing step (3) with coefficient α₀.
//
// At ω = 1 this is the active kernels' SweepCSRI on one column (s = stride
// = 1); Step stays as the strict reference.
func (s *SixColorSSOR) ApplyMStep(rhat, r []float64, alphas []float64) {
	m := len(alphas)
	if m < 1 {
		panic("splitting: ApplyMStep needs at least one step")
	}
	if s.omega != 1 {
		// The dead-solve elisions rely on Gauss–Seidel idempotence, which
		// fails under relaxation; fall back to strict parametrized steps.
		for i := range rhat {
			rhat[i] = 0
		}
		for step := 1; step <= m; step++ {
			s.Step(rhat, r, alphas[m-step])
		}
		return
	}
	s.ka.Alphas = alphas
	kernel.Active().SweepCSRI(&s.ka, rhat, r, s.y, 1, s.K.Rows, 1)
}

// CanApplyMStepInterleaved reports whether the fused interleaved sweep is
// available: the Conrad–Wallach elisions it builds on are exact only at
// ω = 1.
func (s *SixColorSSOR) CanApplyMStepInterleaved() bool { return s.omega == 1 }

// ApplyMStepInterleaved computes r̂_j = M_m⁻¹·r_j for every column of
// row-interleaved panels in one fused sweep: the s per-column block sums of
// a gathered row read from adjacent memory, so K's rows are traversed once
// per half-sweep, not once per right-hand side. impl selects the kernel set
// (nil means the active one). Column j reproduces ApplyMStep on column j
// exactly. Callers must check CanApplyMStepInterleaved first; rhat
// and r must share one stride. Like ApplyMStep it mutates per-splitting
// scratch, so each job gets its own instance from the engine's pool.
func (s *SixColorSSOR) ApplyMStepInterleaved(rhat, r *vec.IMulti, alphas []float64, impl *kernel.Impl) {
	m := len(alphas)
	if m < 1 {
		panic("splitting: ApplyMStepInterleaved needs at least one step")
	}
	if !s.CanApplyMStepInterleaved() {
		panic("splitting: ApplyMStepInterleaved needs ω = 1 (check CanApplyMStepInterleaved)")
	}
	n := s.K.Rows
	if rhat.N != n || r.N != n || r.S != rhat.S || r.Stride != rhat.Stride {
		panic(fmt.Sprintf("splitting: ApplyMStepInterleaved dims: K %d×%d, r %d×%d/%d, rhat %d×%d/%d",
			n, n, r.N, r.S, r.Stride, rhat.N, rhat.S, rhat.Stride))
	}
	if impl == nil {
		impl = kernel.Active()
	}
	st := rhat.Stride
	if cap(s.y) < n*st {
		s.y = make([]float64, n*st)
	}
	s.ka.Alphas = alphas
	impl.SweepCSRI(&s.ka, rhat.Data, r.Data, s.y[:n*st], st, n, rhat.S)
}
