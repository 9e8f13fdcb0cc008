// Package service is the HTTP face of the solver engine: it turns the
// m-step PCG library into a resident daemon by exposing submission, job
// status, per-case result streams and operational statistics over an
// HTTP/JSON API. All solving mechanics — the bounded worker pool, the
// LRU problem/preconditioner cache, the execution planner, tile
// execution and the column-done fan-out — live in internal/engine; the
// service is a thin adapter that maps requests, streams and errors onto
// the wire. The same engine backs the embeddable repro.NewLocal solver,
// so HTTP and in-process callers are served by one implementation.
package service

import "repro/internal/engine"

// Re-exported engine vocabulary: the service's request/response types are
// exactly the engine's (the HTTP layer adds only transport concerns).
type (
	// Config sizes the engine's worker pool, queue, and cache.
	Config = engine.Config
	// SolveRequest is one unit of work (a plate or a general system, plus
	// solver settings).
	SolveRequest = engine.Request
	// PlateSpec requests the paper's plane-stress plate problem.
	PlateSpec = engine.PlateSpec
	// SystemSpec requests a general sparse SPD solve in coordinate form.
	SystemSpec = engine.SystemSpec
	// SolverSpec selects the m-step PCG variant by name.
	SolverSpec = engine.SolverSpec
	// Job is a live job handle.
	Job = engine.Job
	// JobState is the lifecycle of a submitted solve.
	JobState = engine.JobState
	// JobView is an immutable snapshot of a submitted job.
	JobView = engine.JobView
	// JobResult reports a finished solve.
	JobResult = engine.JobResult
	// CaseResult reports one right-hand side of a batched solve.
	CaseResult = engine.CaseResult
	// CaseEvent is one streamed per-case completion.
	CaseEvent = engine.CaseEvent
	// PlanInfo is the execution plan the planner resolved for a request.
	PlanInfo = engine.PlanInfo
	// Stats is the service health report.
	Stats = engine.Stats
	// TraceInfo is a job's stage timeline and convergence samples
	// (GET /v1/jobs/{id}/trace).
	TraceInfo = engine.TraceInfo
)

// Job lifecycle states.
const (
	JobQueued  = engine.JobQueued
	JobRunning = engine.JobRunning
	JobDone    = engine.JobDone
	JobFailed  = engine.JobFailed
)

// Submission errors, re-exported for HTTP status mapping and callers.
var (
	ErrQueueFull = engine.ErrQueueFull
	ErrClosed    = engine.ErrClosed
	ErrNotCached = engine.ErrNotCached
)

// Service serves an engine over HTTP. The embedded engine's methods
// (Submit, Solve, PlanRequest, Job, Cancel, Stats, Abort, Close) are the
// in-process API; Handler returns the /v1 HTTP API over the same engine.
type Service struct {
	*engine.Engine
}

// New starts a solver service with cfg's worker pool. Call Close to drain
// queued jobs and stop the workers.
func New(cfg Config) *Service {
	return &Service{Engine: engine.New(cfg)}
}
