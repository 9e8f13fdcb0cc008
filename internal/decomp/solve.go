package decomp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/kernel"
)

// Solver errors. All ranks reduce the same quantities, so every rank takes
// the same branch and returns the same error — the fabric can never
// deadlock on divergent control flow.
var (
	ErrMaxIterations     = errors.New("decomp: maximum iterations reached without convergence")
	ErrNotPositiveDef    = errors.New("decomp: matrix not positive definite")
	ErrPrecondIndefinite = errors.New("decomp: preconditioner not positive definite")
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
	// Ctx, when set, is polled each iteration; cancellation propagates to
	// every rank through the reduction's flag lane.
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
	SweepSeconds  float64 // local kernels: row sums, group solves, vector ops
	ReduceSeconds float64 // all-reduce rendezvous (includes wait)
	Exchanges     int     // messages sent
	Reductions    int
}

// Stats reports a decomposed solve.
type Stats struct {
	Iterations    int
	Converged     bool
	FinalUDiff    float64
	FinalRelRes   float64 // −1 unless RelResidualTol or OnIteration asked for it
	MatVecs       int
	PrecondApps   int
	InnerProducts int
	Subdomains    int
	Subs          []SubStats
}

// Solve runs the m-step preconditioned CG of Algorithm 1 for real: one
// goroutine per subdomain, halo exchanges moving actual border values over
// the link fabric, inner products via the tree reducer. f is the right-hand
// side in the global colored ordering (nil = the problem's own RHS); the
// returned solution uses the same ordering.
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
	workers := make([]*worker, d.P)
	for p := 0; p < d.P; p++ {
		workers[p] = newWorker(d, d.Subs[p], links, red, opt, f)
	}

	var wg sync.WaitGroup
	errs := make([]error, d.P)
	for p := 0; p < d.P; p++ {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			errs[w.sd.Rank] = w.run()
		}(workers[p])
	}
	wg.Wait()

	u := make([]float64, n)
	st := Stats{Subdomains: d.P, Subs: make([]SubStats, d.P)}
	for p, w := range workers {
		for i, gidx := range w.sd.ColoredIdx {
			u[gidx] = w.u[i]
		}
		st.Subs[p] = w.stats
	}
	w0 := workers[0]
	st.Iterations = w0.iterations
	st.Converged = w0.converged
	st.FinalUDiff = w0.finalUDiff
	st.FinalRelRes = w0.finalRelRes
	st.MatVecs = w0.matVecs
	st.PrecondApps = w0.precondApps
	st.InnerProducts = w0.innerProducts
	for _, err := range errs {
		if err != nil {
			return u, st, err
		}
	}
	return u, st, nil
}

// worker is one subdomain's run state for a single solve. Everything here
// is private to the owning goroutine; the shared Decomposition is never
// written.
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

	stats         SubStats
	iterations    int
	converged     bool
	finalUDiff    float64
	finalRelRes   float64
	matVecs       int
	precondApps   int
	innerProducts int
}

func newWorker(d *Decomposition, sd *Subdomain, links *Links[[]float64], red *treeReducer, opt Options, f []float64) *worker {
	nd := 2 * sd.NOwn
	w := &worker{
		d: d, sd: sd, links: links, red: red, opt: opt,
		kern: kernel.Active(),
		u:    make([]float64, nd), r: make([]float64, nd), kp: make([]float64, nd),
		rhat: make([]float64, 2*sd.NAll), pvec: make([]float64, 2*sd.NAll),
		ycache:   make([]float64, nd),
		f:        make([]float64, nd),
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

// applyPrecond sets rhat = M⁻¹·r (identity copy when M = 0).
func (w *worker) applyPrecond() {
	if w.opt.M == 0 {
		copy(w.rhat[:2*w.sd.NOwn], w.r)
		w.work(len(w.r))
		return
	}
	w.msweep()
	w.precondApps++
}

// run is the per-rank PCG driver, mirroring cg.SolveInto's iteration
// structure (same stopping tests, same breakdown checks) so decomposed
// results are comparable with the single-matrix path.
func (w *worker) run() error {
	opt := w.opt
	n := 2 * w.sd.NOwn
	if opt.Observe != nil {
		w.obs = opt.Observe(w.sd.Rank)
	}

	// r⁰ = f with u⁰ = 0 (no initial product, matching cg.SolveInto).
	copy(w.r, w.f)
	w.work(n)

	trackRes := opt.RelResidualTol > 0 || opt.OnIteration != nil
	normF := 1.0
	w.finalRelRes = -1
	if trackRes {
		if nf := math.Sqrt(w.reduce([2]float64{w.dot(w.f, w.f), 0}, opSum)[0]); nf != 0 {
			normF = nf
		}
		w.innerProducts++
	}

	w.applyPrecond()
	copy(w.pvec[:n], w.rhat[:n])
	w.work(n)
	rho := w.reduce([2]float64{w.dot(w.rhat[:n], w.r), 0}, opSum)[0]
	w.innerProducts++
	if rho == 0 {
		w.converged = true
		return nil
	}

	for iter := 0; iter < opt.MaxIter; iter++ {
		it0 := time.Now()
		h0, r0 := w.stats.HaloSeconds, w.stats.ReduceSeconds

		// K·p with overlap: interior rows while border values are in
		// flight, border rows after the drain.
		w.post(w.pvec, w.d.AllColors, true)
		w.kpNodes(w.sd.Interior)
		w.drain()
		w.kpNodes(w.sd.Border)
		w.matVecs++
		pkpLocal := w.dot(w.pvec[:n], w.kp)

		pkp := w.reduce([2]float64{pkpLocal, 0}, opSum)[0]
		w.innerProducts++
		if pkp <= 0 {
			w.accountSweep(it0, h0, r0)
			return ErrNotPositiveDef
		}
		alpha := rho / pkp

		var pmax float64
		for i := 0; i < n; i++ {
			w.u[i] += alpha * w.pvec[i]
			if a := math.Abs(w.pvec[i]); a > pmax {
				pmax = a
			}
		}
		w.work(3 * n)
		w.iterations = iter + 1

		// ‖Δu‖_∞ and the cancellation flag share one max-reduce — the real
		// machine's signal-flag network folded into the tree.
		var cancel float64
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			cancel = 1
		}
		ud := w.reduce([2]float64{math.Abs(alpha) * pmax, cancel}, opMax)
		if ud[1] > 0 {
			w.accountSweep(it0, h0, r0)
			if opt.Ctx != nil && opt.Ctx.Err() != nil {
				return opt.Ctx.Err()
			}
			return context.Canceled
		}
		udiff := ud[0]
		w.finalUDiff = udiff

		for i := 0; i < n; i++ {
			w.r[i] -= alpha * w.kp[i]
		}
		w.work(2 * n)
		relres := -1.0
		if trackRes {
			relres = math.Sqrt(w.reduce([2]float64{w.dot(w.r, w.r), 0}, opSum)[0]) / normF
			w.innerProducts++
			w.finalRelRes = relres
		}

		if w.sd.Rank == 0 && opt.OnIteration != nil {
			opt.OnIteration(iter+1, udiff, relres)
		}
		if (opt.Tol > 0 && udiff < opt.Tol) || (opt.RelResidualTol > 0 && relres < opt.RelResidualTol) {
			w.converged = true
			w.accountSweep(it0, h0, r0)
			return nil
		}

		w.applyPrecond()
		rhoNext := w.reduce([2]float64{w.dot(w.rhat[:n], w.r), 0}, opSum)[0]
		w.innerProducts++
		if rhoNext < 0 {
			w.accountSweep(it0, h0, r0)
			return ErrPrecondIndefinite
		}
		if rhoNext == 0 {
			w.converged = true
			w.accountSweep(it0, h0, r0)
			return nil
		}
		beta := rhoNext / rho
		rho = rhoNext
		for i := 0; i < n; i++ {
			w.pvec[i] = w.rhat[i] + beta*w.pvec[i]
		}
		w.work(2 * n)
		w.accountSweep(it0, h0, r0)
	}
	return ErrMaxIterations
}

// accountSweep attributes one iteration's wall time minus its halo and
// reduce shares to local kernel work.
func (w *worker) accountSweep(it0 time.Time, halo0, reduce0 float64) {
	s := time.Since(it0).Seconds() - (w.stats.HaloSeconds - halo0) - (w.stats.ReduceSeconds - reduce0)
	if s > 0 {
		w.stats.SweepSeconds += s
	}
}
