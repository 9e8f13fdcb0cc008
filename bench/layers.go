package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro"
)

// The per-layer metrics, printed by traced runs, and their units. Each is
// named after the module that does the work; README.md says which
// end-to-end metric each one should move, and on which workload.
var perLayerMetrics = []struct{ name, unit string }{
	{"service.request_bytes", "bytes"},
	{"service.response_bytes", "bytes"},
	{"service.encode_s", "s"},
	{"service.decode_s", "s"},
	{"service.http_s", "s"},
	{"fleet.hop_share", "ratio"},
	{"fleet.max_node_share", "ratio"},
	{"engine.queue_s", "s"},
	{"engine.cache_wait_s", "s"},
	{"engine.emit_s", "s"},
	{"engine.cache_hit_ratio", "ratio"},
	{"fem.assemble_s", "s"},
	{"splitting.build_s", "s"},
	{"eigen.spectral_estimate_s", "s"},
	{"precond.build_s", "s"},
	{"plan.plan_s", "s"},
	{"plan.dia_share", "ratio"},
	{"plan.interleave_share", "ratio"},
	{"cg.iterations_per_rhs", "count"},
	{"cg.solve_s", "s"},
	{"cg.s_per_iteration", "s"},
	{"sparse.spmm_s", "s"},
	{"splitting.sweep_s", "s"},
	{"vec.reduce_s", "s"},
	{"vec.update_s", "s"},
	{"cg.phase_coverage", "ratio"},
	{"sparse.spmm_flops_per_byte", "flop/byte"},
	{"sparse.spmm_gbytes_per_s", "GB/s"},
	{"decomp.halo_share", "ratio"},
	{"decomp.reduce_share", "ratio"},
	{"decomp.speedup_vs_serial", "ratio"},
	{"costmodel.A_s", "s"},
	{"costmodel.B_s", "s"},
	{"costmodel.max_rel_error", "ratio"},
	{"costmodel.best_m", "count"},
	{"runtime.alloc_bytes_per_rhs", "bytes"},
	{"runtime.gc_pause_s", "s"},
	{"bench.verify_share", "ratio"},
	{"bench.trace_overhead", "ratio"},
	{"trace.coverage", "ratio"},
	{"bench.host_calib_s", "s"},
}

// Caps on how many traced requests the codec and phase probes re-time.
const (
	codecSamples = 16
	phaseSamples = 32
)

// perLayer computes every per-layer metric from a traced run: the engine's
// job traces, the benchmark's own boundary spans, and layer functions
// re-timed on the workload's own inputs. It also returns the span trees.
func perLayer(w *workload, lp *loop, warm []repro.TraceInfo, o runOpts, d detail, ms0, ms1 runtime.MemStats) (map[string]metric, []span, error) {
	trs := lp.traced
	if len(trs) == 0 {
		return nil, nil, fmt.Errorf("no traced request succeeded")
	}
	unit := map[string]string{}
	for _, pm := range perLayerMetrics {
		unit[pm.name] = pm.unit
	}
	out := map[string]metric{}
	set := func(name string, v float64) { out[name] = metric{v, unit[name]} }
	// over takes the median of f across traced requests, skipping those
	// where it does not apply.
	over := func(f func(*tracedReq) (float64, bool)) float64 {
		var xs []float64
		for _, t := range trs {
			if v, ok := f(t); ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	engineSpan := func(names ...string) func(*tracedReq) (float64, bool) {
		return func(t *tracedReq) (float64, bool) { return t.engineSum(names...) }
	}

	// Request-level split.
	set("engine.queue_s", over(engineSpan("queue")))
	set("engine.cache_wait_s", over(engineSpan("cache_wait")))
	set("engine.emit_s", over(engineSpan("emit")))
	set("plan.plan_s", over(engineSpan("plan")))
	set("cg.solve_s", over(engineSpan("tile", "solve")))
	set("cg.s_per_iteration", over(func(t *tracedReq) (float64, bool) {
		s, ok := t.engineSum("tile", "solve")
		return s / float64(t.res.Iterations), ok && t.res.Iterations > 0
	}))
	set("fleet.hop_share", over(func(t *tracedReq) (float64, bool) { return t.hop() / t.latency(), true }))
	set("service.http_s", over(func(t *tracedReq) (float64, bool) {
		return t.latency() - t.hop() - t.ti.TotalSeconds, true
	}))
	hits := 0
	for _, t := range trs {
		for _, s := range t.ti.Spans {
			if s.Name == "cache_wait" && s.Attrs["hit"] == true {
				hits++
			}
		}
	}
	set("engine.cache_hit_ratio", float64(hits)/float64(len(trs)))

	// Set-up stages, from every job that built its cache entry: the
	// warm-up solves and, on plate-cold, every measured request.
	jobs := slices.Clone(warm)
	for _, t := range trs {
		jobs = append(jobs, t.ti)
	}
	stage := func(name string) (float64, bool) {
		var xs []float64
		for _, ti := range jobs {
			for _, s := range ti.Spans {
				if s.Name == name {
					xs = append(xs, s.DurationSeconds)
				}
			}
		}
		return median(xs), len(xs) > 0
	}
	for _, st := range []struct{ span, metric string }{
		{"assemble", "fem.assemble_s"}, {"splitting_build", "splitting.build_s"}, {"precond_build", "precond.build_s"},
	} {
		v, ok := stage(st.span)
		if !ok {
			return nil, nil, fmt.Errorf("no job ran the %s stage", st.span)
		}
		set(st.metric, v)
	}
	spectral, ok := stage("spectral_estimate")
	if !ok {
		var err error
		if spectral, err = spectralProbe(w.probe); err != nil {
			return nil, nil, fmt.Errorf("spectral probe: %w", err)
		}
	}
	set("eigen.spectral_estimate_s", spectral)

	// Shares over every measured request.
	var rhs, iters, dia, inter int
	nodes := map[string]int{}
	var tracedLat, plainLat []float64
	for _, s := range lp.samples {
		rhs += s.rhs
		iters += s.iterations
		if s.backend == "dia" {
			dia++
		}
		if s.interleave {
			inter++
		}
		nodes[s.node]++
		if s.traced {
			tracedLat = append(tracedLat, s.norm)
		} else {
			plainLat = append(plainLat, s.norm)
		}
	}
	n := float64(len(lp.samples))
	set("plan.dia_share", float64(dia)/n)
	set("plan.interleave_share", float64(inter)/n)
	set("cg.iterations_per_rhs", float64(iters)/float64(rhs))
	maxNode := 0
	for _, c := range nodes {
		maxNode = max(maxNode, c)
	}
	set("fleet.max_node_share", float64(maxNode)/n)
	overhead := 0.0
	if len(plainLat) > 0 {
		overhead = median(tracedLat)/median(plainLat) - 1
	}
	set("bench.trace_overhead", overhead)
	set("bench.verify_share", d.VerifyShare)
	set("runtime.alloc_bytes_per_rhs", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(rhs))
	set("runtime.gc_pause_s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e9)
	set("bench.host_calib_s", d.HostCalibS)

	// Wire encoding, re-timed on a sample of the traced requests.
	var enc, dec, reqB, respB []float64
	for _, k := range evenly(len(trs), codecSamples) {
		e, d, qb, rb, err := codec(trs[k].j.req, trs[k].res)
		if err != nil {
			return nil, nil, fmt.Errorf("codec probe: %w", err)
		}
		enc, dec, reqB, respB = append(enc, e), append(dec, d), append(reqB, qb), append(respB, rb)
	}
	set("service.encode_s", median(enc))
	set("service.decode_s", median(dec))
	set("service.request_bytes", median(reqB))
	set("service.response_bytes", median(respB))

	// Iteration phases: the executed plan's operations re-timed on the
	// request's own matrix, compared with the engine's solve spans.
	type phaseKey struct {
		k               any
		backend, kernel string
		width, workers  int
		interleave      bool
		alphas          string
	}
	memo := map[phaseKey]phases{}
	var spmm, sweep, reduce, update, cover, fpb, gbs []float64
	for _, k := range evenly(len(trs), phaseSamples) {
		t := trs[k]
		sh := shapeOf(t.j.truth(), t.res)
		key := phaseKey{sh.prob.k, sh.backend, sh.kernel, sh.width, sh.workers, sh.interleave, ""}
		if sh.alphas != nil {
			key.alphas = fmt.Sprint(sh.alphas.Coeffs)
		}
		ph, ok := memo[key]
		if !ok {
			var err error
			if ph, err = timePhases(sh); err != nil {
				return nil, nil, fmt.Errorf("phase probe: %w", err)
			}
			memo[key] = ph
		}
		spmm, sweep, reduce, update = append(spmm, ph.spmm), append(sweep, ph.sweep), append(reduce, ph.reduce), append(update, ph.update)
		fpb, gbs = append(fpb, ph.flops/ph.bytes), append(gbs, ph.bytes/ph.spmm/1e9)
		if solve, ok := t.engineSum("tile", "solve"); ok && solve > 0 {
			cover = append(cover, ph.sum()*float64(t.res.Iterations)/solve)
		}
	}
	set("sparse.spmm_s", median(spmm))
	set("splitting.sweep_s", median(sweep))
	set("vec.reduce_s", median(reduce))
	set("vec.update_s", median(update))
	set("cg.phase_coverage", median(cover))
	set("sparse.spmm_flops_per_byte", median(fpb))
	set("sparse.spmm_gbytes_per_s", median(gbs))

	// Decomposed solves: each rank's time split into halo exchange, local
	// sweeps and reductions, from the per-subdomain spans.
	haloShare := func(names ...string) func(*tracedReq) (float64, bool) {
		return func(t *tracedReq) (float64, bool) {
			part, ok := t.engineSum(names...)
			all, _ := t.engineSum("halo_exchange", "local_sweep", "reduce")
			return part / all, ok && all > 0
		}
	}
	set("decomp.halo_share", over(haloShare("halo_exchange")))
	set("decomp.reduce_share", over(haloShare("reduce")))
	speedup := 0.0
	if pl := trs[0].res.Plan; pl != nil && pl.Backend == "decomposed" {
		tol := trs[0].j.req.Solver.Tol
		var err error
		if speedup, err = decompSpeedup(w.probe, pl.Subdomains, pl.M, tol); err != nil {
			return nil, nil, fmt.Errorf("decomposition probe: %w", err)
		}
	}
	set("decomp.speedup_vs_serial", speedup)

	a, b, relErr, bestM, err := costModel(w.probe)
	if err != nil {
		return nil, nil, fmt.Errorf("cost model: %w", err)
	}
	set("costmodel.A_s", a)
	set("costmodel.B_s", b)
	set("costmodel.max_rel_error", relErr)
	set("costmodel.best_m", float64(bestM))

	// Span trees and coverage.
	epoch := trs[0].call.start
	for _, t := range trs {
		if t.call.start.Before(epoch) {
			epoch = t.call.start
		}
	}
	var spans []span
	var covs []float64
	for _, t := range trs {
		s := t.spans(epoch, len(spans)+1)
		covs = append(covs, coverage(s))
		spans = append(spans, s...)
	}
	set("trace.coverage", median(covs))

	for name, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return out, spans, nil
}
