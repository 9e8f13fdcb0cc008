// Package repro is a production-quality Go reproduction of
//
//	Loyce Adams, "An M-Step Preconditioned Conjugate Gradient Method for
//	Parallel Computation", NASA CR-172150 / ICASE 83-23 (ICPP 1983).
//
// The library implements the paper's m-step preconditioned conjugate
// gradient method — preconditioners built from m parametrized steps of a
// stationary iterative method (Jacobi, natural SSOR, or the 6-color
// multicolor SSOR of the paper's plane-stress test problem) — together
// with everything needed to regenerate the paper's evaluation: the
// plane-stress finite element assembly, least-squares and Chebyshev
// polynomial coefficients, spectral interval estimation, a CYBER 203/205
// vector machine cost simulator (Table 2) and a Finite Element Machine
// simulator (Table 3). The machine also runs for real: the "decomposed"
// backend partitions a plate into subdomains, each owned by a dedicated
// goroutine processor exchanging true border values and combining inner
// products up a reduction tree — run when a request asks for it (Auto
// never picks it), with Config.Subdomains / the solver spec's "subdomains"
// field pinning the processor count. The simulator is a clock over that
// same decomposed solver: it charges each processor's reported flops,
// messages and reductions to the machine's time model.
//
// Quick start:
//
//	p, _ := repro.NewPlateProblem(20, 20)
//	res, _ := repro.Solve(p, repro.Config{
//	    M:      4,
//	    Coeffs: repro.LeastSquaresCoeffs,
//	    Tol:    1e-6,
//	})
//	fmt.Println(res.Stats.Iterations, "iterations")
//
// Every single-matrix solve, one right-hand side or a batch, runs one
// PCG recurrence (internal/cg) over one of two layouts of its working
// block: column-contiguous vectors, or row-interleaved panels for wide
// batch tiles whose preconditioner can sweep them (plain CG, or the
// multicolor SSOR at ω = 1). A column's iterates are the same bits in
// either layout and at any batch width; each processor of a decomposed
// solve runs the same recurrence over a layout of its own. The fused inner
// loops (SpMM, block dot/axpy, the multicolor sweep) run through
// internal/kernel's one unrolled set on every architecture; its portable
// reference set, which the kernel tests compare against, gives the same
// bits.
//
// Solve and SolveBatch run the engine every Solver session runs, on a
// throwaway one-worker instance, and so do the commands and the paper's
// experiments: every number the repository prints comes from one
// executor. Beyond one-shot solves, the Solver interface is a session
// that amortizes setup across requests and streams per-case results:
// NewLocal embeds the solver engine in process, the client package drives
// a remote solverd daemon through the identical contract, and
// cmd/solverfleet serves the same API over a cluster of solverd nodes —
// internal/fleet consistent-hashes each request by its problem cache key
// so repeats always land on the node whose cache owns the problem, and
// the client SDK's retry/backoff and Last-Event-ID stream resume make a
// node dying mid-batch invisible to callers. A keyed SystemSpec crosses
// the wire in full once: a keyed system without triplets names its
// matrix by reference, the node resolves it from its cache or answers
// 409 Conflict, and the SDK sends by reference once the service has
// accepted the key, resending the triplets once on a 409.
//
// The execution planner is self-tuning: every warm solve feeds its
// realized throughput back into a per-problem tuner, and once enough
// observations accumulate the engine executes the best-scored candidate
// from a bounded neighborhood around the static plan — m, tile width,
// workers, interleave — scored by measured throughput plus an exploration
// bonus that gets every unmeasured neighbor tried, with the decision's
// full candidate table attached to Solver.Plan, POST /v1/plan and
// JobResult.Plan. The solver spec's "tuning" field selects one of two
// policies: "adapt" (default) or "off" (the static plan bit-for-bit, for
// reproducibility).
//
// The session is observable end to end: every job records a stage
// timeline (queue wait, cache checkout, assembly, preconditioner build,
// planning, per-tile solves) plus a sampled per-iteration convergence
// curve, served by Solver.Trace and GET /v1/jobs/{id}/trace; the engine
// exposes its counters and latency/iteration histograms in Prometheus
// text format on GET /metrics; and solverd adds structured logs and an
// optional pprof/expvar debug listener. The telemetry tap is
// allocation-free on the solve path.
//
// See README.md and the examples/ directory (examples/quickstart,
// examples/embed, examples/batch, examples/stream, examples/service,
// examples/observe, examples/decomposed, examples/tune, examples/fleet)
// for the full tour.
package repro
