package engine

import (
	"io"
	"log/slog"
	"time"

	"repro/internal/obs"
)

// Histogram bucket bounds. Durations span sub-millisecond cache hits to
// multi-second cold builds; iteration counts span the paper's observed
// range (tens for well-preconditioned plates) up to the divergence guard.
var (
	durationBuckets  = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
	iterationBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000}
	// throughputBuckets span realized rhs/s from multi-second scalar solves
	// to sub-millisecond warm batched ones.
	throughputBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
)

// registerMetrics builds the engine's instrument registry. Counters and
// gauges that already live in the engine's own bookkeeping are exposed as
// func-backed series read at scrape time — one source of truth, no double
// bookkeeping; only the histograms are dedicated instruments, observed from
// the job pipeline.
func (s *Engine) registerMetrics() {
	r := obs.NewRegistry()
	s.metrics = r

	counter := func(p *int64) func() float64 {
		return func() float64 {
			s.cmu.Lock()
			defer s.cmu.Unlock()
			return float64(*p)
		}
	}

	r.CounterFunc("repro_jobs_total", "Finished jobs by terminal state.",
		counter(&s.jobsDone), obs.Label{Key: "state", Value: "done"})
	r.CounterFunc("repro_jobs_total", "Finished jobs by terminal state.",
		counter(&s.jobsFailed), obs.Label{Key: "state", Value: "failed"})
	r.CounterFunc("repro_solves_total", "Jobs by the matvec backend they resolved to.",
		counter(&s.solvesCSR), obs.Label{Key: "backend", Value: "csr"})
	r.CounterFunc("repro_solves_total", "Jobs by the matvec backend they resolved to.",
		counter(&s.solvesDIA), obs.Label{Key: "backend", Value: "dia"})
	r.CounterFunc("repro_solves_total", "Jobs by the matvec backend they resolved to.",
		counter(&s.solvesDecomposed), obs.Label{Key: "backend", Value: "decomposed"})
	r.CounterFunc("repro_cg_iterations_total", "CG iterations summed over every solve (block iterations for tiles).",
		counter(&s.totalIters))
	r.CounterFunc("repro_tiles_executed_total", "Executed plan tiles (a scalar solve counts one).",
		counter(&s.tilesExecuted))
	r.CounterFunc("repro_plan_feedback_total", "Executed plans whose realized throughput fed the self-tuning planner.",
		counter(&s.planFeedback))
	r.CounterFunc("repro_by_ref_solves_total", "Jobs whose keyed system was sent without triplets and resolved from the cache.",
		counter(&s.byRefSolves))
	r.CounterFunc("repro_by_ref_misses_total", "By-reference requests refused because their key was not cached (HTTP 409).",
		counter(&s.byRefMisses))

	r.CounterFunc("repro_cache_hits_total", "Problem cache hits.",
		func() float64 { return float64(s.cache.hits.Load()) })
	r.CounterFunc("repro_cache_misses_total", "Problem cache misses.",
		func() float64 { return float64(s.cache.misses.Load()) })

	r.GaugeFunc("repro_queue_depth", "Jobs waiting in the bounded queue.",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("repro_jobs_running", "Jobs currently executing on the worker pool.",
		counter(&s.running))
	r.GaugeFunc("repro_stream_subscribers", "Open per-case result streams.",
		counter(&s.streamSubs))
	r.GaugeFunc("repro_cache_entries", "Resident problem cache entries.",
		func() float64 { return float64(s.cache.len()) })
	r.GaugeFunc("repro_workers", "Worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	r.GaugeFunc("repro_uptime_seconds", "Engine uptime.",
		func() float64 { return time.Since(s.started).Seconds() })

	s.hQueueWait = r.Histogram("repro_queue_wait_seconds",
		"Enqueue to dequeue wait per job.", durationBuckets)
	s.hJobDuration = map[string]*obs.Histogram{
		"csr": r.Histogram("repro_job_duration_seconds",
			"Enqueue to completion latency per job, by resolved backend.",
			durationBuckets, obs.Label{Key: "backend", Value: "csr"}),
		"dia": r.Histogram("repro_job_duration_seconds",
			"Enqueue to completion latency per job, by resolved backend.",
			durationBuckets, obs.Label{Key: "backend", Value: "dia"}),
		"decomposed": r.Histogram("repro_job_duration_seconds",
			"Enqueue to completion latency per job, by resolved backend.",
			durationBuckets, obs.Label{Key: "backend", Value: "decomposed"}),
	}
	s.hCaseIters = r.Histogram("repro_case_iterations",
		"CG iterations per right-hand side (each case of a batch counts once).",
		iterationBuckets)
	s.hPlanRHS = r.Histogram("repro_plan_rhs_per_second",
		"Realized right-hand sides per second of execute time, per tuner-observed job.",
		throughputBuckets)
}

// Metrics returns the engine's instrument registry (for callers composing
// their own exposition endpoint).
func (s *Engine) Metrics() *obs.Registry { return s.metrics }

// Logger returns the engine's structured logger (the configured one, or
// the discard logger), so the layers above log to the same destination.
func (s *Engine) Logger() *slog.Logger { return s.logger }

// WriteMetrics renders the registry in Prometheus text exposition format —
// the body of GET /metrics.
func (s *Engine) WriteMetrics(w io.Writer) error { return s.metrics.WriteProm(w) }

// tileObserver adapts one tile's block solve to the job-wide convergence
// log: the solver reports tile-local column indices, the log records the
// job's case numbering. It is a value (no pointer) so attaching it to
// cg.Options allocates at most once per tile, never per iteration.
type tileObserver struct {
	log   *obs.ConvergenceLog
	cases []int
}

func (t tileObserver) ObserveIteration(col, iter int, udiff, relres float64) {
	t.log.ObserveIteration(t.cases[col], iter, udiff, relres)
}

// TraceInfo is the payload of GET /v1/jobs/{id}/trace: the job's stage
// timeline plus its sampled convergence curve. Available while the job
// runs (spans still open report provisional durations) and replayable for
// as long as the job stays in the engine's finished-job history.
type TraceInfo struct {
	JobID string   `json:"job_id"`
	State JobState `json:"state"`
	// TotalSeconds is submit → completion (or → now while unfinished).
	TotalSeconds float64 `json:"total_seconds"`
	// Spans is the stage timeline in start order.
	Spans []obs.SpanView `json:"spans"`
	// ConvergenceStride reports the sampling stride of Convergence: 1 means
	// every iteration was kept; 2ᵏ means the log decimated k times to stay
	// in bounded memory.
	ConvergenceStride int `json:"convergence_stride,omitempty"`
	// Convergence is the sampled per-iteration curve (case, iter, udiff,
	// relres), interleaved across a batch's cases in observation order.
	Convergence []obs.Sample `json:"convergence,omitempty"`
}

// Trace snapshots a job's stage timeline and convergence samples by ID.
func (s *Engine) Trace(id string) (TraceInfo, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state JobState
	if ok {
		state = j.state
	}
	s.mu.Unlock()
	if !ok || j.trace == nil {
		return TraceInfo{}, false
	}
	tv := j.trace.View()
	ti := TraceInfo{
		JobID:        id,
		State:        state,
		TotalSeconds: tv.TotalSeconds,
		Spans:        tv.Spans,
	}
	if j.conv != nil {
		ti.Convergence = j.conv.Samples()
		ti.ConvergenceStride = j.conv.Stride()
	}
	return ti, true
}
