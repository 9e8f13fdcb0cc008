package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"repro"
	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/kernel"
	"repro/internal/mesh"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// timeOp returns the seconds one call of fn takes: calls are repeated until
// a batch spans at least 2 ms, and the median of three batches is kept.
func timeOp(fn func()) float64 {
	fn() // warm caches and lazily sized scratch
	var per []float64
	for b := 0; b < 3; b++ {
		calls := 0
		start := time.Now()
		for calls < 3 || time.Since(start) < 2*time.Millisecond {
			fn()
			calls++
		}
		per = append(per, time.Since(start).Seconds()/float64(calls))
	}
	return median(per)
}

// sink keeps timed results alive so the compiler cannot drop the work.
var sink float64

// hostCalib times a fixed dependent arithmetic loop: a reading of how fast
// this host runs right now, taken before each workload.
func hostCalib() float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := 1.0
		for i := 0; i < 4_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		sink += x
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts)
}

// shape is the part of an executed plan that decides what one CG iteration
// costs: the operator storage, the preconditioner, the block width and
// layout, the kernel set and the goroutine fan-out.
type shape struct {
	prob       problem
	backend    string // "csr" or "dia"; anything else times as CSR
	alphas     *poly.Alphas
	jacobi     bool
	width      int
	interleave bool
	workers    int
	kernel     string
}

// phases is one CG iteration split by layer, in seconds.
type phases struct {
	spmm, sweep, reduce, update float64
	flops, bytes                float64 // of one SpMM, computed from array sizes
}

func (p phases) sum() float64 { return p.spmm + p.sweep + p.reduce + p.update }

// shapeOf reads the executed plan back from a result.
func shapeOf(p problem, res repro.JobResult) shape {
	sh := shape{prob: p, backend: res.Backend, alphas: res.Alphas, jacobi: p.groupStart == nil, width: max(res.RHS, 1), workers: 1}
	if pl := res.Plan; pl != nil {
		if len(pl.Tiles) > 0 {
			sh.width = len(pl.Tiles[0])
		}
		sh.interleave = pl.Interleave
		sh.kernel = pl.Kernel
		if res.Backend != "decomposed" { // there the phases are the serial baseline's
			sh.workers = max(pl.Workers, 1)
		}
	}
	return sh
}

// timePhases re-times one iteration of the executed plan on the
// workload's own matrix: the same operator, preconditioner, layout, kernel
// set and fan-out the CG driver ran, replaying the driver's calls for one
// iteration in its order over the same five working vectors, so the caches
// see what they see in the solve (internal/cg: solveinto.go,
// solveblock.go, solveblocki.go). Each call is timed on its own and
// charged to its phase.
func timePhases(sh shape) (phases, error) {
	k := sh.prob.k
	n := k.Rows
	var op sparse.Operator = k
	var ph phases
	if sh.backend == "dia" {
		d, err := sparse.NewDIAFromCSR(k)
		if err != nil {
			return ph, err
		}
		op = d
		stored := 0
		for _, dg := range d.Diags {
			stored += len(dg)
		}
		ph.flops = 2 * float64(stored*sh.width)
		ph.bytes = 8*float64(stored) + 16*float64(n*sh.width)
	} else {
		ph.flops = 2 * float64(k.NNZ()*sh.width)
		ph.bytes = 16*float64(k.NNZ()) + 8*float64(n+1) + 16*float64(n*sh.width)
	}
	var pc precond.Preconditioner = precond.Identity{}
	if sh.alphas != nil && sh.alphas.M() > 0 {
		kind := core.SSORMulticolor
		if sh.jacobi {
			kind = core.JacobiSplitting
		}
		sp, err := core.BuildSplitting(core.System{K: k, GroupStart: sh.prob.groupStart}, core.Config{Splitting: kind})
		if err != nil {
			return ph, err
		}
		m, err := precond.NewMStep(sp, *sh.alphas)
		if err != nil {
			return ph, err
		}
		pc = m
	}
	w, s := sh.workers, sh.width
	impl := kernel.Select(sh.kernel)
	r := rand.New(rand.NewPCG(1, 2))
	fill := func(xs []float64) {
		for i := range xs {
			xs[i] = r.Float64() - 0.5
		}
	}
	// Step lengths of zero leave u and r unchanged and β = ½ keeps p
	// bounded, so the values stay ordinary numbers however long this runs.
	alpha, beta := make([]float64, s), make([]float64, s)
	for j := range beta {
		beta[j] = 0.5
	}
	dst := make([]float64, s)
	// The driver's operations for one iteration, in its order, over its
	// five working vectors p, K·p, u, r and r̂ = M⁻¹r.
	var spmm, dotPKP, axpyU, normP, axpyR, normR, sweep, dotR, xpayP func()
	switch {
	case s == 1:
		p, kp, u, res, rhat := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		fill(p)
		fill(res)
		spmm = func() { op.ParMulVecTo(kp, p, w) }
		dotPKP = func() { sink += vec.ParDot(p, kp, w) }
		axpyU = func() { vec.ParAxpy(0, p, u, w) }
		normP = func() { sink += vec.NormInf(p) }
		axpyR = func() { vec.ParAxpy(0, kp, res, w) }
		normR = func() { sink += vec.Norm2(res) }
		sweep = func() { pc.Apply(rhat, res) }
		dotR = func() { sink += vec.ParDot(rhat, res, w) }
		xpayP = func() { vec.Xpay(rhat, 0.5, p) }
	case sh.interleave:
		iop, ok := op.(sparse.InterleavedOperator)
		if !ok || !precond.CanApplyInterleaved(pc) {
			return ph, fmt.Errorf("plan ran interleaved but %T/%T cannot", op, pc)
		}
		p, kp, u, res, rhat := vec.NewIMulti(n, s), vec.NewIMulti(n, s), vec.NewIMulti(n, s), vec.NewIMulti(n, s), vec.NewIMulti(n, s)
		fill(p.Data)
		fill(res.Data)
		spmm = func() { iop.ParMulMatITo(kp, p, w, impl) }
		dotPKP = func() { vec.ParIMultiDot(p, kp, w, dst, impl) }
		axpyU = func() { vec.ParIMultiAxpy(alpha, p, u, w, impl) }
		normP = func() { vec.IMultiNormInf(p, dst, impl) }
		axpyR = func() { vec.ParIMultiAxpy(alpha, kp, res, w, impl) }
		normR = func() { vec.IMultiNorm2(res, dst, impl) }
		sweep = func() { precond.ApplyInterleaved(pc, rhat, res, impl) }
		dotR = func() { vec.ParIMultiDot(rhat, res, w, dst, impl) }
		xpayP = func() { vec.ParIMultiXpay(rhat, beta, p, w, impl) }
	default:
		p, kp, u, res, rhat := vec.NewMulti(n, s), vec.NewMulti(n, s), vec.NewMulti(n, s), vec.NewMulti(n, s), vec.NewMulti(n, s)
		fill(p.Data)
		fill(res.Data)
		spmm = func() { op.ParMulMatTo(kp, p, w) }
		dotPKP = func() { vec.ParMultiDot(p, kp, w, dst) }
		axpyU = func() {
			for j := 0; j < s; j++ {
				vec.ParAxpy(0, p.Col(j), u.Col(j), w)
			}
		}
		normP = func() {
			for j := 0; j < s; j++ {
				sink += vec.NormInf(p.Col(j))
			}
		}
		axpyR = func() { vec.ParMultiAxpy(alpha, kp, res, w) }
		normR = func() {
			for j := 0; j < s; j++ {
				sink += vec.Norm2(res.Col(j))
			}
		}
		sweep = func() { precond.ApplyBlock(pc, rhat, res) }
		dotR = func() { vec.ParMultiDot(rhat, res, w, dst) }
		xpayP = func() { vec.ParMultiXpay(rhat, beta, p, w) }
	}
	var acc [4]float64 // spmm, sweep, reduce, update
	steps := []struct {
		phase int
		fn    func()
	}{{0, spmm}, {2, dotPKP}, {3, axpyU}, {2, normP}, {3, axpyR}, {2, normR}, {1, sweep}, {2, dotR}, {3, xpayP}}
	iterate := func() {
		for _, st := range steps {
			t0 := time.Now()
			st.fn()
			acc[st.phase] += time.Since(t0).Seconds()
		}
	}
	iterate() // warm caches and lazily sized scratch
	var batches [4][]float64
	for b := 0; b < 3; b++ {
		acc = [4]float64{}
		iters := 0
		start := time.Now()
		for iters < 3 || time.Since(start) < 5*time.Millisecond {
			iterate()
			iters++
		}
		for k := range acc {
			batches[k] = append(batches[k], acc[k]/float64(iters))
		}
	}
	ph.spmm, ph.sweep, ph.reduce, ph.update = median(batches[0]), median(batches[1]), median(batches[2]), median(batches[3])
	return ph, nil
}

// codec times the wire encoding of a request (json.Marshal of its Wire
// form, as the client SDK sends it) and the decoding of its response (as
// the SDK receives a JobView), returning seconds and bytes for each.
func codec(req repro.Request, res repro.JobResult) (enc, dec, reqBytes, respBytes float64, err error) {
	wire, err := req.Wire()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	resp, err := json.Marshal(repro.JobView{State: repro.JobDone, Result: &res})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	enc = timeOp(func() {
		b, _ := json.Marshal(wire)
		sink += float64(len(b))
	})
	dec = timeOp(func() {
		var v repro.JobView
		if json.Unmarshal(resp, &v) == nil {
			sink += float64(v.Result.Iterations)
		}
	})
	return enc, dec, float64(len(body)), float64(len(resp)), nil
}

// spectralProbe times the engine's spectral-interval estimate on the
// workload's first problem. It stands in for eigen.spectral_estimate_s on
// workloads whose coefficients never need an interval.
func spectralProbe(p problem) (float64, error) {
	kind := core.SSORMulticolor
	if p.groupStart == nil {
		kind = core.JacobiSplitting
	}
	sp, err := core.BuildSplitting(core.System{K: p.k, GroupStart: p.groupStart}, core.Config{Splitting: kind})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = core.IntervalFor(sp, core.Config{})
	return time.Since(start).Seconds(), err
}

// costModel calibrates the paper's eq. (4.1) on the running host for one
// of the workload's matrices: with one right-hand side and unit
// coefficients (a multicolor SSOR splitting for plates, Jacobi for general
// systems), for m = 0…4, it times the iteration phases and a real solve.
// A is the per-iteration cost outside the preconditioner steps and B the
// cost of one step, fitted from the phases; predicted seconds per
// iteration A + mB are checked against the solves', and best m minimises
// t(m) = (A + mB)/√(m+1).
func costModel(p problem) (a, b, maxRelErr float64, bestM int, err error) {
	f := p.f
	if f == nil {
		f = make([]float64, p.k.Rows)
		for i := range f {
			f[i] = 1
		}
	}
	jacobi := p.groupStart == nil
	kind := core.SSORMulticolor
	if jacobi {
		kind = core.JacobiSplitting
	}
	const mMax = 4
	var rest, sweep, measured [mMax + 1]float64
	ws := cg.NewWorkspace(p.k.Rows)
	u := make([]float64, p.k.Rows)
	for m := 0; m <= mMax; m++ {
		var alphas *poly.Alphas
		var pc precond.Preconditioner = precond.Identity{}
		if m > 0 {
			ones := poly.Ones(m)
			alphas = &ones
			sp, err := core.BuildSplitting(core.System{K: p.k, GroupStart: p.groupStart}, core.Config{Splitting: kind})
			if err != nil {
				return 0, 0, 0, 0, err
			}
			if pc, err = precond.NewMStep(sp, ones); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		ph, err := timePhases(shape{prob: p, backend: "csr", alphas: alphas, jacobi: jacobi, width: 1, workers: 1})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		rest[m], sweep[m] = ph.spmm+ph.reduce+ph.update, ph.sweep
		var per []float64
		for r := 0; r < 3; r++ {
			start := time.Now()
			st, err := cg.SolveInto(u, p.k, f, pc, cg.Options{Tol: 1e-6, Workers: 1}, ws)
			if err != nil {
				return 0, 0, 0, 0, fmt.Errorf("cost-model solve m=%d: %w", m, err)
			}
			per = append(per, time.Since(start).Seconds()/float64(st.Iterations))
		}
		measured[m] = median(per)
	}
	// Least-squares line through the sweep times: its slope is B, and its
	// intercept (the m = 0 copy) joins the other phases in A.
	var sm, ss, smm, sms float64
	for m := 0; m <= mMax; m++ {
		fm := float64(m)
		sm += fm
		ss += sweep[m]
		smm += fm * fm
		sms += fm * sweep[m]
	}
	k := float64(mMax + 1)
	b = (k*sms - sm*ss) / (k*smm - sm*sm)
	a = median(rest[:]) + (ss-b*sm)/k
	best := math.Inf(1)
	for m := 0; m <= mMax; m++ {
		pred := a + float64(m)*b
		maxRelErr = max(maxRelErr, math.Abs(pred-measured[m])/measured[m])
		if t := pred / math.Sqrt(float64(m+1)); t < best {
			best, bestM = t, m
		}
	}
	return a, b, maxRelErr, bestM, nil
}

// decompSpeedup compares the decomposed solve of the workload's plate with
// the serial baseline: a single-worker CSR solve of the same system with
// the same preconditioner and tolerance.
func decompSpeedup(p problem, subdomains, m int, tol float64) (float64, error) {
	dec, err := decomp.New(decomp.PlateProblem(p.plate), subdomains, mesh.RowStrips)
	if err != nil {
		return 0, err
	}
	ones := poly.Ones(m)
	sp, err := core.BuildSplitting(core.System{K: p.k, GroupStart: p.groupStart}, core.Config{})
	if err != nil {
		return 0, err
	}
	pc, err := precond.NewMStep(sp, ones)
	if err != nil {
		return 0, err
	}
	ws := cg.NewWorkspace(p.k.Rows)
	u := make([]float64, p.k.Rows)
	var serial, parallel []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		if _, err := cg.SolveInto(u, p.k, p.f, pc, cg.Options{Tol: tol, Workers: 1}, ws); err != nil {
			return 0, err
		}
		serial = append(serial, time.Since(start).Seconds())
		start = time.Now()
		if _, _, err := dec.Solve(p.f, decomp.Options{M: m, Alphas: ones.Coeffs, Tol: tol}); err != nil {
			return 0, err
		}
		parallel = append(parallel, time.Since(start).Seconds())
	}
	return median(serial) / median(parallel), nil
}

// evenly picks at most k of n indices, spread across the range.
func evenly(n, k int) []int {
	if n <= k {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i * n / k
	}
	return slices.Compact(idx)
}
