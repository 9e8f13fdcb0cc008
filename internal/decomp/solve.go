package decomp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/cg"
	"repro/internal/kernel"
)

// Options configures a decomposed solve.
type Options struct {
	// M is the preconditioner step count (0 = plain CG); Alphas must have
	// length M when M > 0.
	M      int
	Alphas []float64
	// Tol is the paper's ‖Δu‖_∞ threshold; RelResidualTol tests
	// ‖r‖₂/‖f‖₂. At least one must be positive.
	Tol            float64
	RelResidualTol float64
	MaxIter        int // 0 = 10·n
	// Ctx, when set, is read by every rank once per iteration and its
	// cancellation raised in the ‖Δu‖∞ max-reduce, so all ranks agree to
	// stop at the end of the same iteration.
	Ctx context.Context
	// OnIteration, when set, fires on rank 0 once per CG iteration. The
	// relative residual is formed only when OnIteration or RelResidualTol
	// asks for it; otherwise Stats.FinalRelRes is −1 and each iteration
	// does three reductions, not four.
	OnIteration func(iter int, udiff, relres float64)
	// Observe, when set, is called on each rank's goroutine before the
	// rank's first step and returns the Observer told of that rank's work.
	// The engine leaves it nil; the Finite Element Machine simulator sets
	// it to price the run on its clocks.
	Observe func(rank int) Observer
}

// Observer receives one rank's work in the order the solve performs it.
// It sees no values and cannot change the arithmetic. Local work is
// counted in the machine's unit: two per multiply-add or matrix entry,
// one per vector element copied.
type Observer interface {
	// Flops reports local work.
	Flops(n int)
	// Post reports a border exchange sent to every neighbor: the values
	// of the listed node colors, from the p-vector halo (halo) or from a
	// preconditioner sweep.
	Post(colors []int, halo bool)
	// Drain reports that the outstanding exchange's replies arrived.
	Drain()
	// Reduce reports one all-reduce: the ‖Δu‖∞ flag (flag) or a sum.
	Reduce(flag bool)
}

// SubStats is one subdomain's measured wall-time breakdown.
type SubStats struct {
	Rank          int
	HaloSeconds   float64 // packing, link sends and drains
	SweepSeconds  float64 // the rest of the solve: row sums, group solves, vector ops
	ReduceSeconds float64 // all-reduce rendezvous (includes wait)
	Exchanges     int     // messages sent
	Reductions    int
}

// Stats reports a decomposed solve: the recurrence's report, the same on
// every rank (FinalRelRes is −1 unless RelResidualTol or OnIteration asked
// for the residual), and each rank's measured breakdown.
type Stats struct {
	cg.Stats
	Subs []SubStats
}

// Solve runs the m-step preconditioned CG of Algorithm 1 for real: one
// goroutine per subdomain, each running cg's recurrence over its rank's
// layout, with halo exchanges moving actual border values over the link
// fabric and inner products combining in the tree reducer. f is the
// right-hand side in the global colored ordering (nil = the problem's own
// RHS); the returned solution uses the same ordering.
//
// Interior rows never reference halo columns, so every matrix-vector
// product and every sweep group solves its interior while the border
// exchange is in flight and its border rows after the drain — communication
// hides behind computation without changing any arithmetic ordering within
// a group (group solves are order-independent: same-color nodes are never
// stencil-adjacent).
func (d *Decomposition) Solve(f []float64, opt Options) ([]float64, Stats, error) {
	n := d.Prob.KColored.Rows
	if f == nil {
		f = d.Prob.RHS
	}
	if len(f) != n {
		return nil, Stats{}, fmt.Errorf("decomp: rhs length %d != system dim %d", len(f), n)
	}
	if opt.M < 0 || (opt.M > 0 && len(opt.Alphas) != opt.M) {
		return nil, Stats{}, fmt.Errorf("decomp: need len(Alphas) == M, got %d vs %d", len(opt.Alphas), opt.M)
	}
	if opt.Tol <= 0 && opt.RelResidualTol <= 0 {
		return nil, Stats{}, fmt.Errorf("decomp: no stopping test enabled (Tol and RelResidualTol both unset)")
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}

	links := NewLinks[[]float64](d, LinkDepth)
	red := newTreeReducer(d.P)
	u := make([]float64, n)
	workers := make([]*worker, d.P)
	for p := range workers {
		workers[p] = newWorker(d, d.Subs[p], links, red, opt, f, u)
	}
	st := Stats{Subs: make([]SubStats, d.P)}
	var err error
	var wg sync.WaitGroup
	for p, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cst, cerr := w.solve()
			st.Subs[p] = w.stats
			if p == 0 {
				st.Stats, err = cst, cerr
			}
		}()
	}
	wg.Wait()
	return u, st, err
}

// worker is one subdomain's rank for a single solve, and the rank-local
// cg.Layout the shared recurrence runs over: products and sweeps act on the
// rank's own rows, and every inner product and norm is the rank's local
// value all-reduced through the tree, so every rank reads the same scalars
// and takes the same branches. It holds one column. Everything here is
// private to the owning goroutine except the shared solution, of which each
// rank writes only its own entries; the Decomposition is never written.
type worker struct {
	d     *Decomposition
	sd    *Subdomain
	links *Links[[]float64]
	red   *treeReducer
	opt   Options
	kern  *kernel.Impl // dispatch table for the local dot/gather kernels
	obs   Observer     // nil unless opt.Observe is set

	u, r, kp   []float64 // own dofs
	rhat, pvec []float64 // own + halo dofs
	ycache     []float64 // Conrad–Wallach cache, own dofs
	f          []float64 // own dofs
	out        []float64 // the solution, global colored ordering

	// trackRes forms ‖f‖₂ and ‖r‖₂ only when the stopping test or the
	// iteration hook reads them; every rank decides alike from the shared
	// options.
	trackRes bool
	// canceled is the agreed cancellation flag of the last max-reduce.
	canceled bool

	// Per-neighbor double-buffered send payloads, sized from the
	// partition's actual border width (MaxSendWords): the receiver copies
	// a buffer out before its sender can reuse it (the ≤2-in-flight bound
	// documented at LinkDepth), so two slots suffice and the hot path
	// never allocates.
	sendBufs [][2][]float64
	sendIdx  []int

	// At most one exchange is outstanding at a time: post() records the
	// destination vector and colors, drain() completes the scatter.
	pendingVec    []float64
	pendingColors []int
	hasPending    bool

	stats SubStats
}

func newWorker(d *Decomposition, sd *Subdomain, links *Links[[]float64], red *treeReducer, opt Options, f, out []float64) *worker {
	nd := 2 * sd.NOwn
	w := &worker{
		d: d, sd: sd, links: links, red: red, opt: opt,
		kern: kernel.Active(),
		u:    make([]float64, nd), r: make([]float64, nd), kp: make([]float64, nd),
		rhat: make([]float64, 2*sd.NAll), pvec: make([]float64, 2*sd.NAll),
		ycache:   make([]float64, nd),
		f:        make([]float64, nd),
		out:      out,
		trackRes: opt.RelResidualTol > 0 || opt.OnIteration != nil,
		sendBufs: make([][2][]float64, len(sd.Neighbors)),
		sendIdx:  make([]int, len(sd.Neighbors)),
	}
	w.stats.Rank = sd.Rank
	for flat, gidx := range sd.ColoredIdx {
		w.f[flat] = f[gidx]
	}
	for ni, q := range sd.Neighbors {
		words := sd.MaxSendWords[q]
		w.sendBufs[ni] = [2][]float64{
			make([]float64, 0, words),
			make([]float64, 0, words),
		}
	}
	return w
}

// solve runs cg's recurrence over the rank's layout from u⁰ = 0, r⁰ = f
// (no initial product). Only rank 0 carries the iteration hook. The rank's
// sweep time is its solve time less its halo and reduce time.
func (w *worker) solve() (cg.Stats, error) {
	t0 := time.Now()
	if w.opt.Observe != nil {
		w.obs = w.opt.Observe(w.sd.Rank)
	}
	copy(w.r, w.f)
	w.work(len(w.r))

	copt := cg.Options{Tol: w.opt.Tol, RelResidualTol: w.opt.RelResidualTol, MaxIter: w.opt.MaxIter}
	if w.opt.Ctx != nil {
		copt.Ctx = agreed{w.opt.Ctx, w}
	}
	if w.sd.Rank == 0 && w.opt.OnIteration != nil {
		copt.Observer = onIteration(w.opt.OnIteration)
	}
	// Solve validated the options, so the only failure is the column's own,
	// which ColErrs holds unwrapped.
	bst, _ := cg.SolveLayout(w, 1, copt, nil)
	w.stats.SweepSeconds = max(time.Since(t0).Seconds()-w.stats.HaloSeconds-w.stats.ReduceSeconds, 0)
	return bst.Cols[0], bst.ColErrs[0]
}

// agreed is the context a rank's recurrence polls: it reports the caller's
// cancellation only once the ranks have agreed on it in the ‖Δu‖∞
// max-reduce, so every rank leaves at the same iteration boundary and none
// is left waiting in the reduction tree.
type agreed struct {
	context.Context
	w *worker
}

func (c agreed) Err() error {
	if !c.w.canceled {
		return nil
	}
	return c.Context.Err()
}

// onIteration adapts Options.OnIteration to rank 0's convergence observer.
type onIteration func(iter int, udiff, relres float64)

func (f onIteration) ObserveIteration(_, iter int, udiff, relres float64) { f(iter, udiff, relres) }

// post packs the border values of the given node colors from v and sends
// one record per neighbor; the matching drain scatters the replies into
// v's halo. Send-all-then-recv-all over buffered links cannot deadlock.
// halo marks the p-vector exchange of the matrix-vector product, as
// opposed to a sweep's.
func (w *worker) post(v []float64, colors []int, halo bool) {
	if len(w.sd.Neighbors) > 0 {
		if w.obs != nil {
			w.obs.Post(colors, halo)
		}
		t0 := time.Now()
		for ni, q := range w.sd.Neighbors {
			idx := w.sendIdx[ni]
			w.sendIdx[ni] = idx ^ 1
			buf := w.sendBufs[ni][idx][:0]
			snd := w.sd.SendNodes[q]
			for _, c := range colors {
				for _, li := range snd[c] {
					buf = append(buf, v[2*li], v[2*li+1])
				}
			}
			w.sendBufs[ni][idx] = buf
			w.links.Send(w.sd.Rank, q, buf)
			w.stats.Exchanges++
		}
		w.stats.HaloSeconds += time.Since(t0).Seconds()
		w.hasPending = true
		w.pendingVec = v
		w.pendingColors = colors
	}
}

// drain completes the outstanding post: receive one record per neighbor
// and scatter it into the pending vector's halo entries. No-op when
// nothing is pending (P=1 or isolated subdomain).
func (w *worker) drain() {
	if !w.hasPending {
		return
	}
	w.hasPending = false
	t0 := time.Now()
	v, colors := w.pendingVec, w.pendingColors
	for _, q := range w.sd.Neighbors {
		vals := w.links.Recv(q, w.sd.Rank)
		i := 0
		rcv := w.sd.RecvNodes[q]
		for _, c := range colors {
			for _, li := range rcv[c] {
				v[2*li] = vals[i]
				v[2*li+1] = vals[i+1]
				i += 2
			}
		}
	}
	w.stats.HaloSeconds += time.Since(t0).Seconds()
	if w.obs != nil {
		w.obs.Drain()
	}
}

// reduce is a timed all-reduce.
func (w *worker) reduce(v [2]float64, op reduceOp) [2]float64 {
	t0 := time.Now()
	out := w.red.allReduce(w.sd.Rank, v, op)
	w.stats.ReduceSeconds += time.Since(t0).Seconds()
	w.stats.Reductions++
	if w.obs != nil {
		w.obs.Reduce(op == opMax)
	}
	return out
}

// sum is the all-reduced sum of a local value.
func (w *worker) sum(local float64) float64 {
	return w.reduce([2]float64{local, 0}, opSum)[0]
}

// work reports n units of local work to the observer, if any.
func (w *worker) work(n int) {
	if w.obs != nil {
		w.obs.Flops(n)
	}
}

// dot is the worker's local inner product, routed through the kernel
// dispatch table (same accumulation order as the portable loop).
func (w *worker) dot(a, b []float64) float64 {
	w.work(2 * len(a))
	return w.kern.Dot(a, b)
}

// rowSum accumulates Σ Vals[k]·x[Cols[k]] over the half-open entry range
// [lo, hi).
func (w *worker) rowSum(lo, hi int32, x []float64) float64 {
	return w.kern.GatherDot32(w.sd.Vals[lo:hi], w.sd.Cols[lo:hi], x)
}

// kpNodes computes kp = K·p rows for both components of the listed local
// nodes. The diagonal is stored inside the row, so the sum runs in exactly
// the serial CSR column order.
func (w *worker) kpNodes(nodes []int) {
	ng := w.sd.NumGroups
	stride := ng + 1
	var entries int32
	for _, li := range nodes {
		for comp := 0; comp < 2; comp++ {
			flat := 2*li + comp
			seg := w.sd.Seg[flat*stride:]
			w.kp[flat] = w.rowSum(seg[0], seg[ng], w.pvec)
			entries += seg[ng] - seg[0]
		}
	}
	w.work(2 * int(entries))
}

// solveGroup runs one color-group solve of Algorithm 3 over the listed
// local nodes (the interior or border part of the group's color): combine
// the fresh one-sided sum, the Conrad–Wallach cache, and α·r, and divide
// by the diagonal. Group solves are order-independent — same-color nodes
// are never stencil-adjacent — so splitting a group into interior/border
// sub-passes changes no arithmetic.
func (w *worker) solveGroup(nodes []int, g int, alpha float64, forward, cache, solve bool) {
	comp := g % 2
	ng := w.sd.NumGroups
	stride := ng + 1
	flops := 0
	for _, li := range nodes {
		flat := 2*li + comp
		seg := w.sd.Seg[flat*stride:]
		lo, hi := seg[0], seg[g]
		if !forward {
			lo, hi = seg[g+1], seg[ng]
		}
		x := -w.rowSum(lo, hi, w.rhat)
		flops += 2 * int(hi-lo)
		if solve {
			w.rhat[flat] = (x + w.ycache[flat] + alpha*w.r[flat]) / w.sd.Diag[flat]
			flops += 4
		}
		if cache {
			w.ycache[flat] = x
		}
	}
	w.work(flops)
}

// msweep applies the m-step multicolor SSOR preconditioner (Algorithm 3)
// with interior/border overlap: each color's interior groups solve while
// the previous color's border exchange is still in flight; the drain lands
// exactly before the border groups need the fresh halo.
//
// Dependency argument for the reordering: a group's interior solves read
// no halo at all, own values of *other* colors (complete — their groups
// finished in a previous color pass), and the same node's other component
// (solved immediately before, in order). Border solves run only after the
// drain. The one ordering hazard is the final color-0 section, where group
// 0 reads own group-1 values of border nodes — so there group 1 completes
// (interior, drain, border) before group 0 starts.
func (w *worker) msweep() {
	m := w.opt.M
	sd := w.sd
	for i := range w.rhat {
		w.rhat[i] = 0
	}
	for i := range w.ycache {
		w.ycache[i] = 0
	}
	nc := w.d.NumColors
	lastGroup := 2*nc - 1
	for s := 1; s <= m; s++ {
		alpha := w.opt.Alphas[m-s]
		// Forward half-sweep: groups ascending; color c's solves need halo
		// colors < c, delivered by draining the previous color's post.
		for c := 0; c < nc; c++ {
			w.solveGroup(sd.ColorInterior[c], 2*c, alpha, true, true, true)
			w.solveGroup(sd.ColorInterior[c], 2*c+1, alpha, true, 2*c+1 < lastGroup, true)
			w.drain()
			w.solveGroup(sd.ColorBorder[c], 2*c, alpha, true, true, true)
			w.solveGroup(sd.ColorBorder[c], 2*c+1, alpha, true, 2*c+1 < lastGroup, true)
			w.post(w.rhat, w.d.colorSets[c], false)
		}
		// Backward half-sweep: skip the last group (identical re-solve);
		// color 0's u-solve is dead until the final step and its pair
		// travels with the next forward sweep.
		for c := nc - 1; c >= 1; c-- {
			if 2*c+1 != lastGroup {
				w.solveGroup(sd.ColorInterior[c], 2*c+1, alpha, false, true, true)
			}
			w.solveGroup(sd.ColorInterior[c], 2*c, alpha, false, true, true)
			w.drain()
			if 2*c+1 != lastGroup {
				w.solveGroup(sd.ColorBorder[c], 2*c+1, alpha, false, true, true)
			}
			w.solveGroup(sd.ColorBorder[c], 2*c, alpha, false, true, true)
			w.post(w.rhat, w.d.colorSets[c], false)
		}
		if lastGroup != 1 {
			// Group 1 must complete before group 0 reads it (group 0's
			// upper sum includes own border nodes' group-1 values).
			w.solveGroup(sd.ColorInterior[0], 1, alpha, false, true, true)
			w.drain()
			w.solveGroup(sd.ColorBorder[0], 1, alpha, false, true, true)
			w.solveGroup(sd.ColorInterior[0], 0, alpha, false, true, s == m)
			w.solveGroup(sd.ColorBorder[0], 0, alpha, false, true, s == m)
		} else {
			// One color: the forward sweep posted color 0 and the backward
			// loop never ran; group 0's upper sum reads group-1 halo values.
			w.solveGroup(sd.ColorInterior[0], 0, alpha, false, true, s == m)
			w.drain()
			w.solveGroup(sd.ColorBorder[0], 0, alpha, false, true, s == m)
		}
	}
}

// NormF all-reduces ‖f‖₂ when the residual is tracked and reports 1
// otherwise, so the relative residual of an untracked ‖r‖₂ reads −1.
func (w *worker) NormF(dst []float64) {
	dst[0] = 1
	if w.trackRes {
		dst[0] = math.Sqrt(w.sum(w.dot(w.f, w.f)))
	}
}

// MatVec computes K·p with overlap: interior rows while border values are
// in flight, border rows after the drain.
func (w *worker) MatVec() {
	w.post(w.pvec, w.d.AllColors, true)
	w.kpNodes(w.sd.Interior)
	w.drain()
	w.kpNodes(w.sd.Border)
}

// Precondition sets rhat = M⁻¹·r: the m-step sweep, or a copy when M = 0.
func (w *worker) Precondition() {
	if w.opt.M == 0 {
		copy(w.rhat[:len(w.r)], w.r)
		w.work(len(w.r))
		return
	}
	w.msweep()
}

func (w *worker) StartDirection() {
	n := len(w.r)
	copy(w.pvec[:n], w.rhat[:n])
	w.work(n)
}

func (w *worker) DotPKp(dst []float64)   { dst[0] = w.sum(w.dot(w.pvec[:len(w.kp)], w.kp)) }
func (w *worker) DotRhatR(dst []float64) { dst[0] = w.sum(w.dot(w.rhat[:len(w.r)], w.r)) }

// StepU updates the own iterate and max-reduces ‖p‖_∞ with the
// cancellation flag in the second lane — the real machine's signal-flag
// network folded into the tree.
func (w *worker) StepU(alpha, pinf []float64) {
	a := alpha[0]
	var pmax float64
	for i := range w.u {
		w.u[i] += a * w.pvec[i]
		if v := math.Abs(w.pvec[i]); v > pmax {
			pmax = v
		}
	}
	w.work(3 * len(w.u))
	var cancel float64
	if w.opt.Ctx != nil && w.opt.Ctx.Err() != nil {
		cancel = 1
	}
	m := w.reduce([2]float64{pmax, cancel}, opMax)
	pinf[0], w.canceled = m[0], m[1] > 0
}

// StepR updates r and, when tracked, all-reduces ‖r‖₂; otherwise it
// reports −1.
func (w *worker) StepR(negAlpha, rnorm []float64) {
	alpha := -negAlpha[0]
	for i := range w.r {
		w.r[i] -= alpha * w.kp[i]
	}
	w.work(2 * len(w.r))
	rnorm[0] = -1
	if w.trackRes {
		rnorm[0] = math.Sqrt(w.sum(w.dot(w.r, w.r)))
	}
}

func (w *worker) StepP(beta []float64) {
	b := beta[0]
	for i := range w.r {
		w.pvec[i] = w.rhat[i] + b*w.pvec[i]
	}
	w.work(2 * len(w.r))
}

// Save writes the rank's own entries of the final iterate into the shared
// solution.
func (w *worker) Save(int, int) {
	for i, gidx := range w.sd.ColoredIdx {
		w.out[gidx] = w.u[i]
	}
}

// Drop retires the rank's one column, which ends the solve.
func (w *worker) Drop(int) {}
