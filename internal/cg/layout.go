package cg

import (
	"repro/internal/kernel"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// layout is the storage of a solve's working block — residuals r,
// preconditioned residuals r̂, directions p and products Kp — behind the
// block operations of one PCG iteration, so SolveBlockInto writes the
// recurrence once. Every operation acts on the active prefix of columns
// (slot-indexed scalar slices are that long); drop shrinks the prefix.
type layout interface {
	// matvec sets Kp = K·p.
	matvec()
	// precondition sets r̂ = M⁻¹·r.
	precondition()
	// startDirection sets p = r̂.
	startDirection()
	// dotPKp sets dst[slot] = (p, Kp).
	dotPKp(dst []float64)
	// dotRhatR sets dst[slot] = (r̂, r).
	dotRhatR(dst []float64)
	// stepU adds α·p to each active column's iterate and sets
	// pinf[slot] = ‖p‖_∞.
	stepU(alpha, pinf []float64)
	// stepR adds negAlpha·Kp to r and sets rnorm[slot] = ‖r‖₂.
	stepR(negAlpha, rnorm []float64)
	// stepP sets p = r̂ + β·p.
	stepP(beta []float64)
	// save makes slot's iterate final in column j of the caller's block.
	save(slot, j int)
	// drop swaps slot with the last active column and shrinks the prefix.
	drop(slot int)
}

// columns is the column-contiguous layout over vec.Multi: every working
// column is a zero-copy slice, so preconditioners without a fused block
// sweep apply column by column at no conversion cost, and the iterate is
// updated in place in the caller's block. A single active column takes the
// scalar SpMV.
type columns struct {
	buf            [4][]float64 // backing of r, r̂, p and Kp
	r, rhat, p, kp vec.Multi    // active-prefix views
	k              sparse.Operator
	m              precond.Preconditioner
	u              *vec.Multi
	perm           []int
	w              int
}

func (c *columns) begin(k sparse.Operator, m precond.Preconditioner, u, f *vec.Multi, perm []int, w int) {
	n, s := f.N, f.S
	for i, v := range [...]*vec.Multi{&c.r, &c.rhat, &c.p, &c.kp} {
		c.buf[i] = grown(c.buf[i], n*s)
		*v = vec.Multi{N: n, S: s, Data: c.buf[i]}
	}
	c.r.CopyFrom(f)
	c.k, c.m, c.u, c.perm, c.w = k, m, u, perm, w
}

func (c *columns) matvec() {
	if c.p.S == 1 {
		c.k.ParMulVecTo(c.kp.Data, c.p.Data, c.w)
		return
	}
	c.k.ParMulMatTo(&c.kp, &c.p, c.w)
}

func (c *columns) precondition()          { precond.ApplyBlock(c.m, &c.rhat, &c.r) }
func (c *columns) startDirection()        { copy(c.p.Data, c.rhat.Data) }
func (c *columns) dotPKp(dst []float64)   { vec.ParMultiDot(&c.p, &c.kp, c.w, dst) }
func (c *columns) dotRhatR(dst []float64) { vec.ParMultiDot(&c.rhat, &c.r, c.w, dst) }
func (c *columns) stepP(beta []float64)   { vec.ParMultiXpay(&c.rhat, beta, &c.p, c.w) }
func (c *columns) save(int, int)          {}

func (c *columns) stepU(alpha, pinf []float64) {
	for slot, a := range alpha {
		vec.ParAxpy(a, c.p.Col(slot), c.u.Col(c.perm[slot]), c.w)
	}
	vec.MultiNormInf(&c.p, pinf)
}

func (c *columns) stepR(negAlpha, rnorm []float64) {
	vec.ParMultiAxpy(negAlpha, &c.kp, &c.r, c.w)
	vec.MultiNorm2(&c.r, rnorm)
}

func (c *columns) drop(slot int) {
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
	u                  *vec.Multi
	w                  int
	impl               *kernel.Impl
}

func (q *panels) begin(k sparse.InterleavedOperator, m precond.Preconditioner, u, f *vec.Multi, w int, impl *kernel.Impl) {
	n, s := f.N, f.S
	for i, v := range [...]*vec.IMulti{&q.r, &q.rhat, &q.p, &q.kp, &q.ui} {
		q.buf[i] = grown(q.buf[i], n*s)
		*v = vec.IMulti{N: n, S: s, Stride: s, Data: q.buf[i]}
	}
	q.ui.Zero()
	q.r.InterleaveFrom(f, impl)
	q.k, q.m, q.u, q.w, q.impl = k, m, u, w, impl
}

func (q *panels) matvec()                { q.k.ParMulMatITo(&q.kp, &q.p, q.w, q.impl) }
func (q *panels) precondition()          { precond.ApplyInterleaved(q.m, &q.rhat, &q.r, q.impl) }
func (q *panels) startDirection()        { copy(q.p.Data, q.rhat.Data) }
func (q *panels) dotPKp(dst []float64)   { vec.ParIMultiDot(&q.p, &q.kp, q.w, dst, q.impl) }
func (q *panels) dotRhatR(dst []float64) { vec.ParIMultiDot(&q.rhat, &q.r, q.w, dst, q.impl) }
func (q *panels) stepP(beta []float64)   { vec.ParIMultiXpay(&q.rhat, beta, &q.p, q.w, q.impl) }
func (q *panels) save(slot, j int)       { q.ui.ScatterCol(slot, q.u.Col(j)) }

func (q *panels) stepU(alpha, pinf []float64) {
	vec.ParIMultiAxpy(alpha, &q.p, &q.ui, q.w, q.impl)
	vec.IMultiNormInf(&q.p, pinf, q.impl)
}

func (q *panels) stepR(negAlpha, rnorm []float64) {
	vec.ParIMultiAxpy(negAlpha, &q.kp, &q.r, q.w, q.impl)
	vec.IMultiNorm2(&q.r, rnorm, q.impl)
}

func (q *panels) drop(slot int) {
	last := q.r.S - 1
	for _, v := range [...]*vec.IMulti{&q.r, &q.rhat, &q.p, &q.kp, &q.ui} {
		v.SwapCols(slot, last)
		v.S = last
	}
}
