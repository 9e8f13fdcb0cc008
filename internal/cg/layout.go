package cg

import (
	"repro/internal/kernel"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Layout is the storage of a solve's working block — residuals r,
// preconditioned residuals r̂, directions p and products Kp — behind the
// block operations of one PCG iteration, so the recurrence is written once.
// Every operation acts on the active prefix of columns (slot-indexed scalar
// slices are that long); Drop shrinks the prefix. The package's two
// layouts hold one matrix's block in columns or in interleaved panels;
// SolveLayout runs the recurrence over any other, such as one subdomain's
// share of a distributed solve, whose inner products and norms are its
// local values all-reduced over every subdomain. A layout whose caller
// reads no relative residual may skip forming it: NormF then reports 1 and
// StepR −1, so FinalRelRes reads −1.
type Layout interface {
	// NormF sets dst[j] = ‖f_j‖₂ for every right-hand side j.
	NormF(dst []float64)
	// MatVec sets Kp = K·p.
	MatVec()
	// Precondition sets r̂ = M⁻¹·r.
	Precondition()
	// StartDirection sets p = r̂.
	StartDirection()
	// DotPKp sets dst[slot] = (p, Kp).
	DotPKp(dst []float64)
	// DotRhatR sets dst[slot] = (r̂, r).
	DotRhatR(dst []float64)
	// StepU adds α·p to each active column's iterate and sets
	// pinf[slot] = ‖p‖_∞.
	StepU(alpha, pinf []float64)
	// StepR adds negAlpha·Kp to r and sets rnorm[slot] = ‖r‖₂.
	StepR(negAlpha, rnorm []float64)
	// StepP sets p = r̂ + β·p.
	StepP(beta []float64)
	// Save makes slot's iterate final in column j of the caller's block.
	Save(slot, j int)
	// Drop swaps slot with the last active column and shrinks the prefix.
	Drop(slot int)
}

// columns is the column-contiguous layout over vec.Multi: every working
// column is a zero-copy slice, so preconditioners without a fused block
// sweep apply column by column at no conversion cost, and the iterate is
// updated in place in the caller's block. A single active column takes the
// scalar SpMV.
type columns struct {
	buf            [4][]float64 // backing of r, r̂, p and Kp
	r, rhat, p, kp vec.Multi    // active-prefix views
	k              Operator
	m              precond.Preconditioner
	u, f           *vec.Multi
	perm           []int
	w              int
}

func (c *columns) begin(k Operator, m precond.Preconditioner, u, f *vec.Multi, perm []int, w int) {
	n, s := f.N, f.S
	for i, v := range [...]*vec.Multi{&c.r, &c.rhat, &c.p, &c.kp} {
		c.buf[i] = grown(c.buf[i], n*s)
		*v = vec.Multi{N: n, S: s, Data: c.buf[i]}
	}
	// u⁰ = 0, so r⁰ = f with no initial product.
	u.Zero()
	c.r.CopyFrom(f)
	c.k, c.m, c.u, c.f, c.perm, c.w = k, m, u, f, perm, w
}

func (c *columns) NormF(dst []float64) { normCols(c.f, dst) }

func (c *columns) MatVec() {
	if c.p.S == 1 {
		c.k.ParMulVecTo(c.kp.Data, c.p.Data, c.w)
		return
	}
	c.k.ParMulMatTo(&c.kp, &c.p, c.w)
}

func (c *columns) Precondition()          { precond.ApplyBlock(c.m, &c.rhat, &c.r) }
func (c *columns) StartDirection()        { copy(c.p.Data, c.rhat.Data) }
func (c *columns) DotPKp(dst []float64)   { vec.ParMultiDot(&c.p, &c.kp, c.w, dst) }
func (c *columns) DotRhatR(dst []float64) { vec.ParMultiDot(&c.rhat, &c.r, c.w, dst) }
func (c *columns) StepP(beta []float64)   { vec.ParMultiXpay(&c.rhat, beta, &c.p, c.w) }
func (c *columns) Save(int, int)          {}

func (c *columns) StepU(alpha, pinf []float64) {
	for slot, a := range alpha {
		vec.ParAxpy(a, c.p.Col(slot), c.u.Col(c.perm[slot]), c.w)
	}
	vec.MultiNormInf(&c.p, pinf)
}

func (c *columns) StepR(negAlpha, rnorm []float64) {
	vec.ParMultiAxpy(negAlpha, &c.kp, &c.r, c.w)
	vec.MultiNorm2(&c.r, rnorm)
}

func (c *columns) Drop(slot int) {
	last := c.r.S - 1
	for _, v := range [...]*vec.Multi{&c.r, &c.rhat, &c.p, &c.kp} {
		v.SwapCols(slot, last)
		v.S, v.Data = last, v.Data[:v.N*last]
	}
}

// panels is the row-interleaved layout over vec.IMulti: a row's values for
// every active column sit side by side, so one gathered matrix index feeds
// all of them from one cache line. The right-hand sides are interleaved
// once at entry, and each column's iterate is de-interleaved once, when it
// retires.
type panels struct {
	buf                [5][]float64 // backing of r, r̂, p, Kp and the iterate
	r, rhat, p, kp, ui vec.IMulti   // active-prefix views
	k                  sparse.InterleavedOperator
	m                  precond.Preconditioner
	u, f               *vec.Multi
	w                  int
	impl               *kernel.Impl
}

func (q *panels) begin(k sparse.InterleavedOperator, m precond.Preconditioner, u, f *vec.Multi, w int, impl *kernel.Impl) {
	n, s := f.N, f.S
	for i, v := range [...]*vec.IMulti{&q.r, &q.rhat, &q.p, &q.kp, &q.ui} {
		q.buf[i] = grown(q.buf[i], n*s)
		*v = vec.IMulti{N: n, S: s, Stride: s, Data: q.buf[i]}
	}
	// u⁰ = 0, so r⁰ = f with no initial product.
	q.ui.Zero()
	q.r.InterleaveFrom(f, impl)
	q.k, q.m, q.u, q.f, q.w, q.impl = k, m, u, f, w, impl
}

func (q *panels) NormF(dst []float64)    { normCols(q.f, dst) }
func (q *panels) MatVec()                { q.k.ParMulMatITo(&q.kp, &q.p, q.w, q.impl) }
func (q *panels) Precondition()          { precond.ApplyInterleaved(q.m, &q.rhat, &q.r, q.impl) }
func (q *panels) StartDirection()        { copy(q.p.Data, q.rhat.Data) }
func (q *panels) DotPKp(dst []float64)   { vec.ParIMultiDot(&q.p, &q.kp, q.w, dst, q.impl) }
func (q *panels) DotRhatR(dst []float64) { vec.ParIMultiDot(&q.rhat, &q.r, q.w, dst, q.impl) }
func (q *panels) StepP(beta []float64)   { vec.ParIMultiXpay(&q.rhat, beta, &q.p, q.w, q.impl) }
func (q *panels) Save(slot, j int)       { q.ui.ScatterCol(slot, q.u.Col(j)) }

func (q *panels) StepU(alpha, pinf []float64) {
	vec.ParIMultiAxpy(alpha, &q.p, &q.ui, q.w, q.impl)
	vec.IMultiNormInf(&q.p, pinf, q.impl)
}

func (q *panels) StepR(negAlpha, rnorm []float64) {
	vec.ParIMultiAxpy(negAlpha, &q.kp, &q.r, q.w, q.impl)
	vec.IMultiNorm2(&q.r, rnorm, q.impl)
}

func (q *panels) Drop(slot int) {
	last := q.r.S - 1
	for _, v := range [...]*vec.IMulti{&q.r, &q.rhat, &q.p, &q.kp, &q.ui} {
		v.SwapCols(slot, last)
		v.S = last
	}
}

// normCols sets dst[j] = ‖f_j‖₂ for every column of f.
func normCols(f *vec.Multi, dst []float64) {
	for j := range dst {
		dst[j] = vec.Norm2(f.Col(j))
	}
}
