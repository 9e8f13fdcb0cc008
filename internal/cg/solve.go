package cg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// BlockStats reports a block (multi-right-hand-side) solve: the shared
// per-iteration work — exactly one SpMM and one block preconditioner
// application per outer iteration — plus per-column recurrence statistics.
type BlockStats struct {
	// RHS is the number of right-hand sides s.
	RHS int
	// Iterations is the number of outer block iterations (the maximum over
	// columns, since converged columns deflate out of later iterations).
	Iterations int
	// SpMMs counts matrix–multivector products: exactly one per outer
	// iteration, shared by every active column.
	SpMMs int
	// BlockPrecondApps counts block preconditioner applications (one
	// m-step sweep serving all active columns).
	BlockPrecondApps int
	// InnerProducts counts per-column inner-product evaluations, the
	// paper's bottleneck metric, summed over columns.
	InnerProducts int
	// Converged reports that every column converged.
	Converged bool
	// Interleaved reports that the solve ran on the row-interleaved panel
	// layout (Options.Interleave honored by both operator and
	// preconditioner).
	Interleaved bool
	// Cols holds per-column statistics indexed by right-hand side. Cols
	// and the recordings inside it alias the workspace; copy what must
	// survive the workspace's next solve.
	Cols []Stats
	// ColErrs holds the per-column failure (breakdown, iteration limit or
	// the context's error), indexed like Cols; nil entries converged.
	ColErrs []error
}

// ColumnStats is the payload of Options.OnColumnDone: a snapshot of one
// column's final statistics, taken the moment the column leaves the active
// set. Unlike BlockStats.Cols it shares no memory with the workspace, so it
// survives later solves.
type ColumnStats struct {
	// Stats is the column's final per-column recurrence report.
	Stats Stats
	// Err is the column's failure — breakdown, iteration limit, or the
	// context's error on cancellation; nil when the column converged.
	Err error
}

// Workspace holds the scratch of a solve — both layouts' working blocks
// and the per-column bookkeeping — so repeated solves of same-shaped
// problems (the solver service's steady state) allocate nothing. One
// workspace serves scalar and block solves and grows to the largest
// system and batch it has seen. Not safe for concurrent use; give each
// worker its own.
type Workspace struct {
	cols columns
	pans panels
	tmp  []float64 // VerifyResidual scratch

	// u1 and f1 wrap SolveInto's vectors as one-column blocks.
	u1, f1 vec.Multi

	// Per-slot scalars (slot = position in the active prefix).
	rho, pkp, alpha, beta, pinf, rnorm []float64
	// perm maps slot -> right-hand-side index.
	perm []int

	// Per-right-hand-side state. stats keeps each column's CGAlphas and
	// CGBetas capacity across solves, so recording them stops allocating
	// once it has grown to the iteration count a problem needs.
	normF []float64
	stats []Stats
	errs  []error
}

// NewWorkspace returns a workspace sized for n-dimensional scalar solves.
// It grows automatically when later used for a larger system or batch.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{tmp: make([]float64, n)}
	w.ensure(1)
	return w
}

// grown returns b resized to length n, reallocating only on growth.
func grown[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// ensure sizes the per-column bookkeeping for s right-hand sides,
// reallocating only on growth; the layouts size their blocks as a solve
// begins.
func (w *Workspace) ensure(s int) {
	w.rho, w.pkp, w.alpha = grown(w.rho, s), grown(w.pkp, s), grown(w.alpha, s)
	w.beta, w.pinf, w.rnorm = grown(w.beta, s), grown(w.pinf, s), grown(w.rnorm, s)
	w.perm, w.normF = grown(w.perm, s), grown(w.normF, s)
	w.stats, w.errs = grown(w.stats, s), grown(w.errs, s)
}

// SolveInto runs preconditioned CG on K·u = f with preconditioner M from
// the zero start, writing the iterate into u (len n; any prior content is
// overwritten). It is the one-column case of SolveBlockInto. ws provides
// the scratch memory and may be nil, in which case a fresh workspace is
// allocated.
//
// With History off, a warm workspace, and Workers ≤ 1, a solve performs no
// heap allocation — the returned Stats.CGAlphas/CGBetas alias the
// workspace, so copy them before the workspace's next solve if they must
// survive it. Workers > 1 fans the SpMV/dot/axpy kernels out over that many
// goroutines (goroutine startup does allocate).
func SolveInto(u []float64, k Operator, f []float64, m precond.Preconditioner, opt Options, ws *Workspace) (Stats, error) {
	if ws == nil {
		ws = NewWorkspace(len(f))
	}
	ws.u1 = vec.Multi{N: len(u), S: 1, Data: u}
	ws.f1 = vec.Multi{N: len(f), S: 1, Data: f}
	st, err := SolveBlockInto(&ws.u1, k, &ws.f1, m, opt, ws)
	ws.u1, ws.f1 = vec.Multi{}, vec.Multi{}
	if st.RHS == 0 { // rejected before solving
		return Stats{}, err
	}
	return st.Cols[0], st.ColErrs[0]
}

// SolveBlockInto runs preconditioned CG on s systems K·u_j = f_j sharing
// one matrix and one preconditioner: s independent scalar CG recurrences
// advance in lockstep, but every iteration performs exactly one
// matrix–multivector product (BlockStats.SpMMs) and one block
// preconditioner application — the per-iteration memory traffic over K is
// amortized over all s right-hand sides, the multi-RHS form of the paper's
// long-vector-operation argument. Each column runs the paper's stopping
// tests independently; converged (or broken-down) columns are deflated —
// swapped out of the active prefix — so later iterations do no work for
// them. Column j's iterates match a one-column solve on (K, f_j) exactly,
// in either layout, because every kernel preserves per-column arithmetic
// order.
//
// u receives the solutions, always starting from the zero iterate. Every
// option is honored per column: cancellation stops at the next iteration
// boundary, each column's retirement fires OnColumnDone while the rest of
// the block keeps iterating, and the observer samples every active column
// once per block iteration. With a warm workspace, History off and
// Workers ≤ 1 the steady state performs no heap allocation; the returned
// BlockStats.Cols/ColErrs alias the workspace, so copy them before its
// next solve if they must survive it.
//
// The returned error is nil only when every column converged; otherwise it
// joins the per-column failures (also available in BlockStats.ColErrs).
func SolveBlockInto(u *vec.Multi, k Operator, f *vec.Multi, m precond.Preconditioner, opt Options, ws *Workspace) (BlockStats, error) {
	n, cols := k.Dims()
	s := f.S
	if cols != n {
		return BlockStats{}, fmt.Errorf("cg: matrix must be square, got %d×%d", n, cols)
	}
	if f.N != n {
		return BlockStats{}, fmt.Errorf("cg: rhs block is %d×%d, want %d rows", f.N, f.S, n)
	}
	if u.N != n || u.S != s {
		return BlockStats{}, fmt.Errorf("cg: iterate block is %d×%d, want %d×%d", u.N, u.S, n, s)
	}
	if err := check(s, opt); err != nil {
		return BlockStats{}, err
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	if m == nil {
		m = precond.Identity{}
	}
	if ws == nil {
		ws = NewWorkspace(n)
	}
	ws.tmp = grown(ws.tmp, n)
	ws.ensure(s)
	// The Par kernels fall back to their serial forms for w <= 1 (and for
	// short vectors), so one normalized budget serves every call site.
	w := max(opt.Workers, 1)
	var verify func(j int) float64
	if opt.VerifyResidual {
		verify = func(j int) float64 {
			k.ParMulVecTo(ws.tmp, u.Col(j), w)
			vec.Sub(ws.tmp, f.Col(j), ws.tmp)
			return vec.Norm2(ws.tmp)
		}
	}
	lay, st := ws.begin(k, m, u, f, opt, w)
	return ws.run(lay, st, s, opt, verify)
}

// SolveLayout runs the recurrence of SolveBlockInto over a caller's layout
// of s right-hand sides, which must hold the zero start: u = 0 and r = f.
// The layout owns the matrix, the preconditioner, the iterate and its
// kernels, so Workers and Interleave do not apply and VerifyResidual is not
// available; MaxIter must be set, since the driver never sees the system's
// size. Every option is otherwise honored as in SolveBlockInto. ws may be
// nil.
func SolveLayout(lay Layout, s int, opt Options, ws *Workspace) (BlockStats, error) {
	if err := check(s, opt); err != nil {
		return BlockStats{}, err
	}
	if opt.MaxIter <= 0 || opt.VerifyResidual {
		return BlockStats{}, errors.New("cg: a caller's layout needs MaxIter and cannot verify residuals")
	}
	if ws == nil {
		ws = &Workspace{}
	}
	ws.ensure(s)
	return ws.run(lay, BlockStats{}, s, opt, nil)
}

// check rejects a solve that cannot run: no right-hand side or no
// stopping test.
func check(s int, opt Options) error {
	if s < 1 {
		return fmt.Errorf("cg: block solve needs at least one right-hand side")
	}
	if opt.Tol <= 0 && opt.RelResidualTol <= 0 {
		return fmt.Errorf("cg: no stopping test enabled (Tol and RelResidualTol both unset)")
	}
	return nil
}

// run is the recurrence, Algorithm 1 for every column of lay, with the
// per-column stopping tests, breakdown checks, deflation, hooks and
// statistics. verify, when non-nil, returns a finished column's true
// residual norm ‖f_j − K·u_j‖₂.
func (ws *Workspace) run(lay Layout, st BlockStats, s int, opt Options, verify func(j int) float64) (BlockStats, error) {
	lay.NormF(ws.normF[:s])
	for j := 0; j < s; j++ {
		c := &ws.stats[j]
		*c = Stats{TrueRelRes: -1, CGAlphas: c.CGAlphas[:0], CGBetas: c.CGBetas[:0]}
		ws.errs[j] = nil
		ws.perm[j] = j
		if ws.normF[j] == 0 {
			ws.normF[j] = 1 // homogeneous column: absolute residual test
		}
	}
	st.RHS, st.Cols, st.ColErrs = s, ws.stats, ws.errs

	act := s
	// finish completes column j's report once its iterate is final, then
	// surfaces it through the hook — long before the slowest column
	// finishes.
	finish := func(j int) {
		c := &ws.stats[j]
		if verify != nil {
			c.MatVecs++
			c.TrueRelRes = verify(j) / ws.normF[j]
		}
		if opt.OnColumnDone != nil {
			opt.OnColumnDone(j, ColumnStats{Stats: c.detached(), Err: ws.errs[j]})
		}
	}
	// deflate retires the column in the given active slot: its per-column
	// bookkeeping is already final, so its iterate is saved, and it (with
	// every per-slot scalar the remaining iterations still read) is swapped
	// past the active prefix.
	deflate := func(slot int) {
		j := ws.perm[slot]
		lay.Save(slot, j)
		lay.Drop(slot)
		last := act - 1
		ws.rho[slot], ws.rho[last] = ws.rho[last], ws.rho[slot]
		ws.pkp[slot], ws.pkp[last] = ws.pkp[last], ws.pkp[slot]
		ws.perm[slot], ws.perm[last] = ws.perm[last], ws.perm[slot]
		act--
		finish(j)
	}

	// M r̂⁰ = r⁰ ; p⁰ = r̂⁰ ; ρ⁰_j = (r̂_j, r_j).
	lay.Precondition()
	st.BlockPrecondApps++
	lay.StartDirection()
	lay.DotRhatR(ws.rho[:act])
	st.InnerProducts += act
	for j := 0; j < s; j++ {
		ws.stats[j].PrecondApps++
		ws.stats[j].InnerProducts++
	}
	for slot := act - 1; slot >= 0; slot-- {
		j := ws.perm[slot]
		switch {
		case ws.rho[slot] < 0:
			ws.errs[j] = ErrBreakdownPrecond
			deflate(slot)
		case ws.rho[slot] == 0: // zero residual: the zero iterate solves column j
			ws.stats[j].Converged = true
			deflate(slot)
		}
	}

	var stopErr error
	for act > 0 && st.Iterations < opt.MaxIter {
		if opt.Ctx != nil {
			if cerr := opt.Ctx.Err(); cerr != nil {
				stopErr = cerr
				break
			}
		}
		st.Iterations++

		// One product feeds every active column: KP = K·P.
		lay.MatVec()
		st.SpMMs++
		lay.DotPKp(ws.pkp[:act])
		st.InnerProducts += act
		for slot := 0; slot < act; slot++ {
			c := &ws.stats[ws.perm[slot]]
			c.MatVecs++
			c.InnerProducts++
		}
		// Matrix breakdowns deflate before the iterate update.
		for slot := act - 1; slot >= 0; slot-- {
			if ws.pkp[slot] <= 0 {
				ws.errs[ws.perm[slot]] = ErrBreakdownMatrix
				deflate(slot)
			}
		}
		if act == 0 {
			break
		}

		for slot := 0; slot < act; slot++ {
			ws.alpha[slot] = ws.rho[slot] / ws.pkp[slot]
			ws.beta[slot] = -ws.alpha[slot] // beta doubles as −α scratch here
			c := &ws.stats[ws.perm[slot]]
			c.CGAlphas = append(c.CGAlphas, ws.alpha[slot])
		}
		// u_j += α_j p_j and r_j −= α_j K p_j; the paper's test quantity
		// ‖u^{k+1}−u^k‖_∞ is |α_j|·‖p_j‖_∞ per column.
		lay.StepU(ws.alpha[:act], ws.pinf[:act])
		lay.StepR(ws.beta[:act], ws.rnorm[:act])
		for slot := 0; slot < act; slot++ {
			j := ws.perm[slot]
			c := &ws.stats[j]
			c.Iterations++
			c.FinalUDiff = math.Abs(ws.alpha[slot]) * ws.pinf[slot]
			c.FinalRelRes = ws.rnorm[slot] / ws.normF[j]
			if opt.History {
				c.UDiffHistory = append(c.UDiffHistory, c.FinalUDiff)
				c.ResidualHistory = append(c.ResidualHistory, c.FinalRelRes)
			}
			if opt.Observer != nil {
				opt.Observer.ObserveIteration(j, c.Iterations, c.FinalUDiff, c.FinalRelRes)
			}
		}
		// Per-column stopping tests; converged columns deflate out.
		for slot := act - 1; slot >= 0; slot-- {
			c := &ws.stats[ws.perm[slot]]
			if (opt.Tol > 0 && c.FinalUDiff < opt.Tol) || (opt.RelResidualTol > 0 && c.FinalRelRes < opt.RelResidualTol) ||
				(opt.StopWhen != nil && opt.StopWhen(ws.perm[slot], *c)) {
				c.Converged = true
				deflate(slot)
			}
		}
		if act == 0 {
			break
		}

		// One block application serves every surviving column:
		// M r̂_j = r_j.
		lay.Precondition()
		st.BlockPrecondApps++
		lay.DotRhatR(ws.pkp[:act]) // pkp doubles as ρ' scratch
		st.InnerProducts += act
		for slot := 0; slot < act; slot++ {
			c := &ws.stats[ws.perm[slot]]
			c.PrecondApps++
			c.InnerProducts++
		}
		for slot := act - 1; slot >= 0; slot-- {
			j := ws.perm[slot]
			switch {
			case ws.pkp[slot] < 0:
				ws.errs[j] = ErrBreakdownPrecond
				deflate(slot)
			case ws.pkp[slot] == 0:
				// (M⁻¹r, r) = 0 with SPD M means r = 0: exact convergence.
				ws.stats[j].Converged = true
				deflate(slot)
			}
		}
		if act == 0 {
			break
		}

		for slot := 0; slot < act; slot++ {
			ws.beta[slot] = ws.pkp[slot] / ws.rho[slot]
			ws.rho[slot] = ws.pkp[slot]
			c := &ws.stats[ws.perm[slot]]
			c.CGBetas = append(c.CGBetas, ws.beta[slot])
		}
		// p_j = r̂_j + β_j p_j.
		lay.StepP(ws.beta[:act])
	}

	// Columns still active at exit ran out of iterations — or the context
	// was canceled; either way they surface exactly like deflated ones, so
	// every column fires OnColumnDone once per solve.
	exitErr := ErrMaxIterations
	if stopErr != nil {
		exitErr = stopErr
	}
	for slot := 0; slot < act; slot++ {
		j := ws.perm[slot]
		ws.errs[j] = exitErr
		lay.Save(slot, j)
		finish(j)
	}
	ws.release()

	st.Converged = true
	for j := range ws.stats {
		if !ws.stats[j].Converged {
			st.Converged = false
			break
		}
	}
	var errs []error
	for j, e := range ws.errs {
		if e != nil {
			errs = append(errs, fmt.Errorf("cg: rhs %d: %w", j, e))
		}
	}
	return st, errors.Join(errs...)
}

// begin loads f into the layout the options and the operator's and
// preconditioner's capabilities select, and reports which one runs.
func (ws *Workspace) begin(k Operator, m precond.Preconditioner, u, f *vec.Multi, opt Options, w int) (Layout, BlockStats) {
	if opt.Interleave {
		if ik, ok := k.(sparse.InterleavedOperator); ok && precond.CanApplyInterleaved(m) {
			ws.pans.begin(ik, m, u, f, w, kernel.Active())
			return &ws.pans, BlockStats{Interleaved: true}
		}
	}
	ws.cols.begin(k, m, u, f, ws.perm, w)
	return &ws.cols, BlockStats{}
}

// release drops the finished solve's references to caller data, keeping
// only the buffers.
func (ws *Workspace) release() {
	ws.cols = columns{buf: ws.cols.buf}
	ws.pans = panels{buf: ws.pans.buf}
}
