package repro

import (
	"context"
	"fmt"

	"repro/internal/engine"
)

// Request is the one unit of work every Solver implementation accepts. It
// names the problem in exactly one of three ways:
//
//   - Problem: an already-assembled *Problem. The local solver consumes it
//     zero-copy and keys it into the engine cache by identity, so repeated
//     solves of the same *Problem skip assembly and spectral-interval
//     estimation; the HTTP client serializes it back to the spec that
//     reconstructs it (see Wire).
//   - Plate: the paper's plane-stress plate problem, declaratively.
//   - System: a general sparse SPD system in coordinate form.
//
// The non-Problem fields are exactly the /v1 wire vocabulary: a Request
// without a Problem marshals to the JSON body POST /v1/solve accepts.
type Request struct {
	// Problem is a prebuilt problem (in-process fast path). Never
	// serialized.
	Problem *Problem `json:"-"`
	// Fs optionally solves a batch of right-hand sides against Problem in
	// one block job (Problem.F's assembled load is used when empty). Only
	// valid alongside Problem; spec requests batch via PlateSpec.Tractions
	// or SystemSpec.Fs instead. Never serialized.
	Fs [][]float64 `json:"-"`

	Plate  *PlateSpec  `json:"plate,omitempty"`
	System *SystemSpec `json:"system,omitempty"`
	Solver SolverSpec  `json:"solver"`
	// OmitSolution drops solution vectors from results (status and
	// convergence stats only).
	OmitSolution bool `json:"omit_solution,omitempty"`
}

// CaseEvent is one streamed per-case completion, delivered to SolveStream
// callbacks as block columns retire: Case identifies the right-hand side,
// Result its outcome. The terminal event of every stream instead carries
// the finished job in Done (with Case = -1), after every case has been
// delivered exactly once.
type CaseEvent = engine.CaseEvent

// Solver is the one solver contract: a session that amortizes setup —
// assembly, structure probing, spectral-interval estimation, preconditioner
// pools — across many solves, streams per-case results as they converge,
// plans without solving, and reports operational statistics. Two
// interchangeable implementations exist: NewLocal runs the engine in
// process, and client.New drives a remote solverd over its /v1 HTTP API.
// The same Request produces the same JobResult through either (modulo
// timing and the in-process-only CGStats detail).
type Solver interface {
	// Solve runs one request to completion. Canceling ctx cancels the
	// underlying job (it stops at its next iteration boundary). A non-nil
	// error may still be accompanied by a partial result for per-case
	// failures.
	Solve(ctx context.Context, req Request) (JobResult, error)
	// SolveStream runs one request, invoking on for every per-case
	// completion the moment its column retires, then once more with the
	// terminal Done event. Canceling ctx cancels the job and returns
	// ctx.Err(). on is called sequentially from one goroutine.
	SolveStream(ctx context.Context, req Request, on func(CaseEvent)) error
	// Plan resolves the execution plan the solver would run req with —
	// matvec backend, batch column tiles, kernel fan-out, step count —
	// without solving anything.
	Plan(ctx context.Context, req Request) (PlanInfo, error)
	// Stats reports the session's operational counters (queue, cache
	// hits/misses, per-backend solves, latency percentiles).
	Stats() (ServiceStats, error)
	// Trace retrieves a job's stage timeline and sampled convergence curve
	// by id (JobResult.JobID, or the Done view's ID from SolveStream). It
	// works while the job runs — open stages report provisional durations —
	// and replays unchanged after completion, for as long as the session
	// retains the job in its finished-job history.
	Trace(ctx context.Context, jobID string) (TraceInfo, error)
	// Close drains the session and releases its resources.
	Close() error
}

// LocalConfig sizes an in-process solver session: worker pool, kernel
// budget, queue, cache. The zero value picks the same defaults as the
// daemon.
type LocalConfig = engine.Config

// Local is the in-process Solver: the same engine the HTTP daemon serves —
// worker pool, LRU problem cache, planner memoization, streaming column
// fan-out — embedded in the calling process, so embedders get warm-cache
// throughput, batch tiling and per-case streaming without running a
// daemon.
type Local struct {
	eng *engine.Engine
}

var _ Solver = (*Local)(nil)

// NewLocal starts an in-process solver session. Call Close to drain queued
// jobs and stop the workers.
func NewLocal(cfg LocalConfig) *Local {
	return &Local{eng: engine.New(cfg)}
}

// Solve implements Solver.
func (l *Local) Solve(ctx context.Context, req Request) (JobResult, error) {
	job, err := l.submit(req)
	if err != nil {
		return JobResult{}, err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		// The caller is the only holder of this job: propagate the
		// cancellation into the solve loop instead of leaking it.
		job.Cancel()
		return JobResult{}, ctx.Err()
	}
	if res := job.Result(); res != nil {
		return *res, job.Err()
	}
	return JobResult{}, job.Err()
}

// SolveStream implements Solver.
func (l *Local) SolveStream(ctx context.Context, req Request, on func(CaseEvent)) error {
	job, err := l.submit(req)
	if err != nil {
		return err
	}
	replay, ch, stop := l.eng.Watch(job)
	defer stop()
	for _, ev := range replay {
		on(ev)
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				v := l.eng.ViewOf(job)
				on(CaseEvent{Case: -1, Done: &v})
				return job.Err()
			}
			on(ev)
		case <-ctx.Done():
			job.Cancel()
			return ctx.Err()
		}
	}
}

// Plan implements Solver.
func (l *Local) Plan(_ context.Context, req Request) (PlanInfo, error) {
	ereq, err := req.engineRequest()
	if err != nil {
		return PlanInfo{}, err
	}
	return l.eng.PlanRequest(ereq)
}

// Stats implements Solver.
func (l *Local) Stats() (ServiceStats, error) { return l.eng.Stats(), nil }

// Trace implements Solver.
func (l *Local) Trace(_ context.Context, jobID string) (TraceInfo, error) {
	ti, ok := l.eng.Trace(jobID)
	if !ok {
		return TraceInfo{}, fmt.Errorf("repro: unknown job %s", jobID)
	}
	return ti, nil
}

// Close implements Solver: it drains queued jobs and stops the workers.
func (l *Local) Close() error {
	l.eng.Close()
	return nil
}

// submit converts and enqueues a request.
func (l *Local) submit(req Request) (*engine.Job, error) {
	ereq, err := req.engineRequest()
	if err != nil {
		return nil, err
	}
	return l.eng.Submit(ereq)
}

// engineRequest lowers the public request onto the engine's vocabulary:
// spec requests pass through, and a prebuilt problem becomes its Prebuilt
// payload alone (Problem.prebuilt), carrying the config its SolverSpec
// names.
func (r Request) engineRequest() (engine.Request, error) {
	if r.Problem == nil {
		if len(r.Fs) > 0 {
			return engine.Request{}, fmt.Errorf("repro: Request.Fs needs Request.Problem (spec requests batch via PlateSpec.Tractions or SystemSpec.Fs)")
		}
		return engine.Request{Plate: r.Plate, System: r.System, Solver: r.Solver, OmitSolution: r.OmitSolution}, nil
	}
	if r.Plate != nil || r.System != nil {
		return engine.Request{}, fmt.Errorf("repro: request needs exactly one of Problem, Plate or System")
	}
	cfg, err := r.Solver.CoreConfig(r.Problem.plate != nil)
	if err != nil {
		return engine.Request{}, err
	}
	pb := r.Problem.prebuilt(cfg, r.Fs)
	return engine.Request{Prebuilt: &pb, OmitSolution: r.OmitSolution}, nil
}

// Wire returns the declarative (JSON-serializable) form of the request:
// spec requests pass through unchanged, and a prebuilt Problem is replaced
// by the spec that reconstructs it — plate problems by their PlateSpec
// recipe, builder problems by their coordinate triplets. The HTTP client
// SDK calls this before marshaling, which is what makes a Problem request
// behave identically through the local and remote solvers. Plate problems
// with an arbitrary Fs batch are not wire-representable (the wire form
// batches plates via Tractions) and return an error.
func (r Request) Wire() (Request, error) {
	if r.Problem == nil {
		if len(r.Fs) > 0 {
			return Request{}, fmt.Errorf("repro: Request.Fs needs Request.Problem")
		}
		return r, nil
	}
	if r.Plate != nil || r.System != nil {
		return Request{}, fmt.Errorf("repro: request needs exactly one of Problem, Plate or System")
	}
	out := r
	out.Problem, out.Fs = nil, nil
	p := r.Problem
	if p.plate != nil {
		if len(r.Fs) > 0 {
			return Request{}, fmt.Errorf("repro: arbitrary right-hand-side batches on plate problems are not wire-representable (batch via PlateSpec.Tractions)")
		}
		spec := p.plateSpec
		out.Plate = &spec
		return out, nil
	}
	k := p.sys.K
	sys := &SystemSpec{N: k.Rows}
	sys.I = make([]int, 0, k.NNZ())
	sys.J = make([]int, 0, k.NNZ())
	sys.V = make([]float64, 0, k.NNZ())
	for i := 0; i < k.Rows; i++ {
		for idx := k.RowPtr[i]; idx < k.RowPtr[i+1]; idx++ {
			sys.I = append(sys.I, i)
			sys.J = append(sys.J, k.ColIdx[idx])
			sys.V = append(sys.V, k.Val[idx])
		}
	}
	if len(r.Fs) > 0 {
		sys.Fs = r.Fs
	} else {
		sys.F = p.F()
	}
	// No cache key: problem identity is process-local, and a shared daemon
	// must not trust two processes to mean the same matrix by it. Callers
	// that want server-side caching use a SystemSpec with their own Key.
	out.System = sys
	return out, nil
}
