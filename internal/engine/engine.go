package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cg"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/eigen"
	"repro/internal/fem"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// ErrQueueFull reports a bounded-queue rejection; HTTP maps it to 503.
var ErrQueueFull = errors.New("engine: job queue full")

// ErrClosed reports submission to a closed engine.
var ErrClosed = errors.New("engine: closed")

// ErrNotCached reports a by-reference system (a keyed SystemSpec without
// triplets) whose key and solver settings have no built cache entry here:
// never sent in full, evicted, or cached on another node. The caller
// resends the system with its triplets; HTTP maps it to 409 Conflict.
var ErrNotCached = errors.New("engine: by-reference system not cached")

// Config sizes the engine. Zero values pick sensible defaults.
type Config struct {
	// Workers is the number of concurrent solves (default GOMAXPROCS).
	Workers int
	// WorkerBudget is the goroutine fan-out each solve may use for its
	// SpMV/dot/axpy kernels. The default divides GOMAXPROCS by Workers
	// (min 1), so Workers × WorkerBudget never oversubscribes the machine.
	WorkerBudget int
	// QueueDepth bounds the job queue (default 256); submissions beyond it
	// fail fast with ErrQueueFull.
	QueueDepth int
	// CacheSize bounds the problem/preconditioner cache entries
	// (default 64).
	CacheSize int
	// HistoryLimit bounds retained finished jobs (default 512); older
	// finished jobs are forgotten and their IDs return 404.
	HistoryLimit int
	// LatencyWindow sizes the latency sample for p50/p99 (default 1024).
	LatencyWindow int
	// NodeID, when non-empty, names this engine instance and prefixes every
	// job ID it mints ("n1-j-000042" instead of "j-000042"). Fleet members
	// set it (solverd -node-id) so job IDs are unique across the cluster and
	// a router can steer job lookups straight to the owning node by prefix.
	NodeID string
	// Tuning is the session default feedback policy for requests that do
	// not pin their own ("off" or "adapt"; empty means adapt): whether the
	// engine folds each executed plan's realized throughput back into later
	// plan decisions. See plan.TuningMode. A request that defers to a
	// malformed default fails at Submit and PlanRequest.
	Tuning string
	// Logger receives structured job-lifecycle logs (submitted, started,
	// finished, failed) with job ids attached. nil discards them — the
	// engine never logs to a default destination a library caller didn't
	// choose.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = max(1, runtime.GOMAXPROCS(0)/c.Workers)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.HistoryLimit <= 0 {
		c.HistoryLimit = 512
	}
	if c.LatencyWindow <= 0 {
		c.LatencyWindow = 1024
	}
	return c
}

// Engine runs solves on a bounded worker pool with a problem cache. Every
// job follows the plan → execute → emit pipeline: the planner resolves the
// request into an execution plan, the worker runs the plan's tiles, and
// per-case completions are emitted to the job's state table and stream
// subscribers as they happen.
type Engine struct {
	cfg      Config
	queue    chan *Job
	cache    *cache
	lat      *latencyRing
	logger   *slog.Logger
	idPrefix string // NodeID + "-" when configured; "" otherwise

	// latByBackend splits the latency window by resolved matvec backend
	// (keys "csr", "dia" and "decomposed"), feeding the per-backend
	// quantiles in Stats.
	latByBackend map[string]*latencyRing

	// metrics is the engine's instrument registry (GET /metrics); the
	// histogram instruments below are registered once at construction and
	// observed from the hot path without further registry lookups.
	metrics      *obs.Registry
	hQueueWait   *obs.Histogram
	hJobDuration map[string]*obs.Histogram // by backend label
	hCaseIters   *obs.Histogram
	hPlanRHS     *obs.Histogram

	// tuner closes the plan → execute → measure loop: every cached solve's
	// realized rhs/s is folded into its per-problem observation store, and
	// warm problems re-plan from the measurements (policy per request via
	// SolverSpec.Tuning, session default via Config.Tuning).
	tuner *plan.Tuner

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // finished job IDs in completion order, for eviction
	closed   bool

	nextID atomic.Int64

	// cmu guards the service counters below as one unit, so a Stats
	// snapshot reads them in a single consistent view — a job can no longer
	// appear in jobs_done while its iterations are still missing from
	// total_iterations, which the old field-by-field atomics allowed.
	cmu              sync.Mutex
	running          int64
	jobsDone         int64
	jobsFailed       int64
	totalIters       int64
	solvesCSR        int64
	solvesDIA        int64
	solvesDecomposed int64
	tilesExecuted    int64
	planFeedback     int64 // executed plans whose throughput fed the tuner
	streamSubs       int64 // current streaming subscribers (gauge)
	byRefSolves      int64 // jobs accepted with a by-reference system
	byRefMisses      int64 // by-reference requests refused with ErrNotCached

	started time.Time
	wg      sync.WaitGroup
}

// New starts an engine with cfg's worker pool. Call Close to drain and stop
// it.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	s := &Engine{
		cfg:    cfg,
		queue:  make(chan *Job, cfg.QueueDepth),
		cache:  newCache(cfg.CacheSize),
		lat:    newLatencyRing(cfg.LatencyWindow),
		logger: logger,
		latByBackend: map[string]*latencyRing{
			"csr":        newLatencyRing(cfg.LatencyWindow),
			"dia":        newLatencyRing(cfg.LatencyWindow),
			"decomposed": newLatencyRing(cfg.LatencyWindow),
		},
		jobs:    make(map[string]*Job),
		tuner:   &plan.Tuner{},
		started: time.Now(),
	}
	if cfg.NodeID != "" {
		s.idPrefix = cfg.NodeID + "-"
	}
	s.registerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Submit validates and enqueues a solve, returning its job handle without
// waiting. It fails fast with ErrQueueFull when the bounded queue is at
// capacity.
//
// A by-reference system is resolved here, synchronously, so async
// submissions learn of a miss (ErrNotCached) too; the job then holds the
// entry it resolved, and a later eviction cannot fail it in the queue.
func (s *Engine) Submit(req Request) (*Job, error) {
	if err := s.validate(&req); err != nil {
		return nil, err
	}
	var entry *cacheEntry
	if req.System.byReference() {
		var err error
		if entry, err = s.resolveByReference(&req, true); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		req:        req,
		entry:      entry,
		done:       make(chan struct{}),
		ctx:        ctx,
		cancel:     cancel,
		state:      JobQueued,
		enqueuedAt: time.Now(),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return nil, ErrClosed
	}
	job.id = fmt.Sprintf("%sj-%06d", s.idPrefix, s.nextID.Add(1))
	// The observability record exists before the job is reachable from the
	// queue or the lookup map, so workers and trace readers never see a
	// partially-instrumented job.
	job.trace = obs.NewTrace(job.id)
	job.conv = obs.NewConvergenceLog(0)
	job.queueSpan = job.trace.Start("queue")
	select {
	case s.queue <- job:
		s.jobs[job.id] = job
		s.mu.Unlock()
		if entry != nil {
			s.cmu.Lock()
			s.byRefSolves++
			s.cmu.Unlock()
		}
		s.logger.Info("job submitted", "job", job.id, "rhs", req.batchSize())
		return job, nil
	default:
		s.mu.Unlock()
		cancel()
		s.logger.Warn("job rejected: queue full", "queue_cap", s.cfg.QueueDepth)
		return nil, ErrQueueFull
	}
}

// resolveByReference finds the built cache entry a by-reference request
// names, or returns ErrNotCached (counted) when there is none. It never
// runs an entry's build: the request has no triplets to build from. touch
// counts the lookup as a cache hit, as a solve does; planning passes false.
func (s *Engine) resolveByReference(req *Request, touch bool) (*cacheEntry, error) {
	key := req.CacheKey()
	if e, ok := s.cache.built(key, touch); ok {
		return e, nil
	}
	s.cmu.Lock()
	s.byRefMisses++
	s.cmu.Unlock()
	return nil, fmt.Errorf("%w: no entry for %s; resend the system with its triplets (system.i/j/v)", ErrNotCached, key)
}

// Solve submits req and waits for completion (or ctx cancellation — the
// solve itself keeps running; only the wait is abandoned). A job-level
// failure is returned as a non-nil error alongside the finished view,
// which still carries any partial result.
func (s *Engine) Solve(ctx context.Context, req Request) (JobView, error) {
	job, err := s.Submit(req)
	if err != nil {
		return JobView{}, err
	}
	select {
	case <-job.Done():
		v := s.ViewOf(job)
		if v.State == JobFailed {
			return v, fmt.Errorf("engine: job %s failed: %s", v.ID, v.Error)
		}
		return v, nil
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// SolveOnce runs one prebuilt problem under its full solver configuration
// (pb.Config) to completion on a throwaway one-worker engine, whose
// kernels run serially: the executor the library's one-shot solves share
// with the service (repro.Solve and SolveBatch, the commands, the paper's
// experiments and the CYBER simulation). It returns one Result per
// right-hand side (pb.Fs, or pb.Sys.F when Fs is empty) and the job's
// error; a column that failed still returns its result beside the joined
// error.
func SolveOnce(pb Prebuilt) ([]core.Result, error) {
	eng := New(Config{
		Workers: 1, WorkerBudget: 1, QueueDepth: 1,
		CacheSize: 1, HistoryLimit: 1, LatencyWindow: 16,
	})
	defer eng.Close()
	job, err := eng.Submit(Request{Prebuilt: &pb})
	if err != nil {
		return nil, err
	}
	<-job.Done()
	jr := job.Result()
	if jr == nil {
		return nil, job.Err()
	}
	shell := core.Result{
		Precond:  jr.Precond,
		Backend:  jr.Backend,
		Interval: eigen.Interval{Lo: jr.IntervalLo, Hi: jr.IntervalHi},
	}
	if jr.Alphas != nil {
		shell.Alphas = *jr.Alphas
	}
	cases := jr.Cases
	if jr.RHS == 1 {
		cases = []CaseResult{{U: jr.U, CGStats: jr.CGStats}}
	}
	out := make([]core.Result, len(cases))
	for i, c := range cases {
		out[i] = shell
		out[i].U = c.U
		if c.CGStats != nil {
			out[i].Stats = *c.CGStats
		}
	}
	return out, job.Err()
}

// Cancel aborts a job by ID: a queued job is skipped when dequeued, a
// running solve stops at its next iteration boundary and the job finishes
// as failed with the cancellation error. Reports whether the ID was known.
func (s *Engine) Cancel(id string) bool {
	job, ok := s.JobRef(id)
	if !ok {
		return false
	}
	job.Cancel()
	return true
}

// PlanRequest resolves the execution plan the service would run req with —
// backend, batch tiles, kernel fan-out, step count — without solving
// anything, through the planning call the solve itself makes. When the
// request's problem is cached and built it plans from that entry (its
// memoized structure probe answers immediately); otherwise from a throwaway
// entry that is only assembled: never inserted into the cache, and no
// preconditioner or spectral interval is built — planning must stay far
// cheaper than solving. Either way a later solve of the same request
// reports an identical JobResult.Plan — including the self-tuning
// evidence: a warm problem past the observation gate explains its decision
// with every candidate's measured throughput and score.
func (s *Engine) PlanRequest(req Request) (PlanInfo, error) {
	if err := s.validate(&req); err != nil {
		return PlanInfo{}, err
	}
	cfg, err := req.coreConfig()
	if err != nil {
		return PlanInfo{}, err
	}
	// Planning reads only an entry whose build has finished, and never
	// touches it; a by-reference request, which cannot assemble, fails
	// without one. Otherwise the throwaway entry carries the request's key,
	// so the tuner's observations, which outlive an evicted entry, still
	// decide the plan a solve would run.
	key := req.CacheKey()
	var entry *cacheEntry
	if req.System.byReference() {
		if entry, err = s.resolveByReference(&req, false); err != nil {
			return PlanInfo{}, err
		}
	} else if e, ok := s.cache.built(key, false); ok {
		entry = e
	} else {
		entry = &cacheEntry{key: key}
		if err := entry.assemble(&req); err != nil {
			return PlanInfo{}, err
		}
	}
	_, pl, mode, dec := s.planFor(entry, cfg, req.batchSize())
	return planInfo(pl, mode, dec), nil
}

// planFor is the one planning call, shared by runJob and PlanRequest so an
// offline plan always matches the plan the solve runs. plan.Static turns
// the entry's structure probe, the batch width and the worker budget into
// the static plan; the preconditioner decides whether panels and the
// decomposed backend are open to it, and a plate gives the mesh facts the
// decomposed backend partitions. Under adapt a cached problem then takes
// the tuner's decision, which may re-plan from measured throughput. A
// throwaway entry (empty key) has no observations and keeps the static
// plan.
func (s *Engine) planFor(entry *cacheEntry, cfg core.Config, rhs int) (plan.Inputs, plan.Plan, plan.TuningMode, plan.Decision) {
	in := plan.Inputs{
		Probe:      entry.structureProbe(),
		Policy:     cfg.Backend,
		RHS:        rhs,
		M:          cfg.M,
		Workers:    s.cfg.WorkerBudget,
		PanelSweep: cfg.Splitting == core.SSORMulticolor && (cfg.Omega == 0 || cfg.Omega == 1),
	}
	if p := entry.plate; p != nil && in.FusedSweep(cfg.M) {
		in.Decomp = &plan.DecompInputs{
			Rows:      p.Grid.Rows,
			FreeNodes: len(p.Free),
			Requested: cfg.Subdomains,
			MaxProcs:  in.Workers,
		}
	}
	pl := plan.Static(in)
	mode := s.tuningFor(cfg)
	var dec plan.Decision
	if mode == plan.TuningAdapt && entry.key != "" {
		pl, dec = s.tuner.Decide(entry.key, in, pl)
	}
	return in, pl, mode, dec
}

// validate checks req and the session default it would run under: a
// request that leaves its tuning policy empty takes Config.Tuning, which New
// cannot reject, so a malformed default fails every request that would use
// it.
func (s *Engine) validate(req *Request) error {
	if err := req.Validate(); err != nil {
		return err
	}
	tuning := req.Solver.Tuning
	if req.Prebuilt != nil {
		tuning = req.Prebuilt.Config.Tuning
	}
	if tuning == "" {
		if _, err := plan.ParseTuning(strings.ToLower(s.cfg.Tuning)); err != nil {
			return fmt.Errorf("engine: the session's Tuning setting: %w", err)
		}
	}
	return nil
}

// tuningFor resolves a solve's feedback policy: the request's knob, else
// the engine's session default (empty means adapt). Submit and PlanRequest
// reject both malformed names, so parsing cannot fail here.
func (s *Engine) tuningFor(cfg core.Config) plan.TuningMode {
	name := cfg.Tuning
	if name == "" {
		name = s.cfg.Tuning
	}
	mode, _ := plan.ParseTuning(strings.ToLower(name))
	return mode
}

// planInfo shapes a resolved plan for job results and the HTTP API,
// including the tuning evidence: which policy governed the decision, how
// the plan was chosen, and every candidate considered with its measured
// throughput.
func planInfo(pl plan.Plan, mode plan.TuningMode, d plan.Decision) PlanInfo {
	info := PlanInfo{
		Backend:    pl.Backend.String(),
		Tiles:      pl.Tiles,
		Workers:    pl.Workers,
		M:          pl.M,
		Subdomains: pl.Subdomains,
		Kernel:     pl.Kernel,
		Interleave: pl.Interleave,
		Tuning:     mode.String(),
		Source:     d.Source,
	}
	if info.Source == "" {
		info.Source = "static"
	}
	if len(d.Candidates) > 0 {
		info.Candidates = make([]PlanCandidate, len(d.Candidates))
		for i, c := range d.Candidates {
			info.Candidates[i] = PlanCandidate{
				Backend:             c.Signature.Backend.String(),
				TileWidth:           c.Signature.TileWidth,
				Workers:             c.Signature.Workers,
				M:                   c.Signature.M,
				Interleave:          c.Signature.Interleave,
				MeasuredRHSPerSec:   c.Measured,
				Observations:        c.Observations,
				SecondsPerIteration: c.IterSeconds,
				Score:               c.Score,
				Chosen:              c.Chosen,
			}
		}
	}
	return info
}

// ViewOf snapshots a job the caller already holds — unlike Job(id) it
// cannot miss, even if the job has aged out of the lookup history.
func (s *Engine) ViewOf(job *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return job.view(time.Now())
}

// Job snapshots a job by ID.
func (s *Engine) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(time.Now()), true
}

// JobRef returns the live job record by ID (for streaming subscriptions
// and cancellation).
func (s *Engine) JobRef(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Watch subscribes to job's per-case completions: it returns the
// already-finished cases as replay events, a channel carrying every later
// completion (closed once the job finishes and all events are delivered),
// and a stop function that must be called when the consumer detaches. The
// engine's StreamSubscribers gauge counts the open watches. Watch is the
// single fan-out path shared by the HTTP stream handlers and the local
// solver's streaming API.
func (s *Engine) Watch(job *Job) (replay []CaseEvent, ch <-chan CaseEvent, stop func()) {
	replay, ch, id := job.subscribe()
	s.addStreamSubs(1)
	var once sync.Once
	stop = func() {
		once.Do(func() {
			if id >= 0 {
				job.unsubscribe(id)
			}
			s.addStreamSubs(-1)
		})
	}
	return replay, ch, stop
}

func (s *Engine) addStreamSubs(d int64) {
	s.cmu.Lock()
	s.streamSubs += d
	s.cmu.Unlock()
}

// Stats snapshots the service health counters. The job/solve/iteration
// counters are read under one lock, so the snapshot is internally
// consistent (e.g. total_iterations always accounts for every job counted
// in jobs_done).
func (s *Engine) Stats() Stats {
	hits, misses := s.cache.hits.Load(), s.cache.misses.Load()
	st := Stats{
		Workers:              s.cfg.Workers,
		WorkerBudget:         s.cfg.WorkerBudget,
		QueueDepth:           len(s.queue),
		QueueCap:             s.cfg.QueueDepth,
		CacheHits:            hits,
		CacheMisses:          misses,
		CacheEntries:         s.cache.len(),
		LatencyP50:           s.lat.quantile(0.50),
		LatencyP99:           s.lat.quantile(0.99),
		LatencyP50CSR:        s.latByBackend["csr"].quantile(0.50),
		LatencyP99CSR:        s.latByBackend["csr"].quantile(0.99),
		LatencyP50DIA:        s.latByBackend["dia"].quantile(0.50),
		LatencyP99DIA:        s.latByBackend["dia"].quantile(0.99),
		LatencyP50Decomposed: s.latByBackend["decomposed"].quantile(0.50),
		LatencyP99Decomposed: s.latByBackend["decomposed"].quantile(0.99),
		UptimeSeconds:        time.Since(s.started).Seconds(),
	}
	s.cmu.Lock()
	st.Running = int(s.running)
	st.JobsDone = s.jobsDone
	st.JobsFailed = s.jobsFailed
	st.TotalIterations = s.totalIters
	st.SolvesCSR = s.solvesCSR
	st.SolvesDIA = s.solvesDIA
	st.SolvesDecomposed = s.solvesDecomposed
	st.TilesExecuted = s.tilesExecuted
	st.PlanFeedback = s.planFeedback
	st.StreamSubscribers = s.streamSubs
	st.ByRefSolves = s.byRefSolves
	st.ByRefMisses = s.byRefMisses
	s.cmu.Unlock()
	if total := hits + misses; total > 0 {
		st.CacheHitRate = float64(hits) / float64(total)
	}
	return st
}

// NodeID reports the configured node identity ("" for standalone engines).
func (s *Engine) NodeID() string { return s.cfg.NodeID }

// Draining reports whether the engine has stopped accepting jobs (Close has
// been called). Load balancers and fleet routers read it through the
// readiness endpoint to take the node out of rotation before it disappears.
func (s *Engine) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Abort cancels every unfinished job — queued jobs are skipped when
// dequeued, running solves stop at their next iteration boundary. It is
// the hard-stop lever for daemons whose drain deadline expired: call it
// before Close so Close's queue drain terminates promptly instead of
// fully solving everything still queued. Finished jobs are unaffected.
func (s *Engine) Abort() {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
}

// Close stops accepting jobs, drains the queue, and waits for in-flight
// solves to finish.
func (s *Engine) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
}

// worker owns one reusable CG workspace and processes jobs until the queue
// closes: the steady-state solve path allocates only the per-job solution
// vector(s). id names the worker in job traces and logs.
func (s *Engine) worker(id int) {
	defer s.wg.Done()
	ws := cg.NewWorkspace(0)
	for job := range s.queue {
		job.queueSpan.End()
		s.hQueueWait.Observe(time.Since(job.enqueuedAt).Seconds())
		if cerr := job.ctx.Err(); cerr != nil {
			// Canceled while queued: skip execution entirely. The trace
			// still ends with a terminal cancelled span, so a cancelled
			// job's timeline is replayable like any other.
			job.trace.Start("cancelled").SetWorker(id).SetAttr("reason", cerr.Error()).End()
			s.transition(job, JobRunning, nil, nil)
			s.transition(job, JobFailed, nil, fmt.Errorf("engine: job canceled while queued: %w", cerr))
			continue
		}
		s.runJob(job, ws, id)
	}
}

func (s *Engine) transition(job *Job, state JobState, result *JobResult, err error) {
	now := time.Now()
	s.mu.Lock()
	job.state = state
	switch state {
	case JobRunning:
		job.startedAt = now
	case JobDone, JobFailed:
		if result != nil {
			result.JobID = job.id
		}
		job.finishedAt = now
		job.result = result
		job.err = err
		// A finished job stays in history; it must not pin the matrix of
		// an entry the cache has since evicted.
		job.entry = nil
		s.finished = append(s.finished, job.id)
		for len(s.finished) > s.cfg.HistoryLimit {
			delete(s.jobs, s.finished[0])
			s.finished = s.finished[1:]
		}
	}
	s.mu.Unlock()
	// Every job passes through JobRunning before its terminal state; the
	// running gauge drops before the job is published as finished, so a
	// caller woken by completion never reads the job as still running.
	if state == JobRunning {
		s.cmu.Lock()
		s.running++
		s.cmu.Unlock()
	}
	if state == JobDone || state == JobFailed {
		lat := now.Sub(job.enqueuedAt).Seconds()
		s.cmu.Lock()
		s.running--
		if state == JobDone {
			s.jobsDone++
		} else {
			s.jobsFailed++
		}
		s.cmu.Unlock()
		s.lat.add(lat)
		backend := ""
		if result != nil {
			backend = result.Backend
		}
		if ring, ok := s.latByBackend[backend]; ok {
			ring.add(lat)
			s.hJobDuration[backend].Observe(lat)
		}
		job.trace.Finish()
		if state == JobDone {
			s.logger.Info("job done", "job", job.id, "backend", backend,
				"latency_seconds", lat, "iterations", result.Iterations)
		} else {
			s.logger.Warn("job failed", "job", job.id, "latency_seconds", lat, "err", err)
		}
		job.cancel() // release the context's resources
		close(job.done)
		// End subscriptions last: by now the final result is published, so
		// stream handlers wake to a complete job view.
		job.closeStreams()
	}
}

// runJob is the plan → execute → emit pipeline every job runs: resolve the
// job's cache entry (a throwaway one for a keyless request), plan through
// the call PlanRequest makes and check out the preconditioner the plan
// runs, then run the plan's tiles, emitting each case's result the moment
// it finishes. A batched request runs as one job against one entry and one
// preconditioner checkout.
func (s *Engine) runJob(job *Job, ws *cg.Workspace, workerID int) {
	s.transition(job, JobRunning, nil, nil)
	s.logger.Debug("job started", "job", job.id, "worker", workerID)

	// All stage spans are leaves — no span nests inside another — so the
	// trace's span durations sum to at most the job's wall time. attrs are
	// the stage's key/value attributes (core's precond_build names its
	// spectral interval's source).
	phase := func(name string, attrs ...any) func() {
		sp := job.trace.Start(name).SetWorker(workerID)
		for i := 0; i+1 < len(attrs); i += 2 {
			sp.SetAttr(fmt.Sprint(attrs[i]), attrs[i+1])
		}
		return sp.End
	}
	fail := func(err error) { s.transition(job, JobFailed, nil, err) }

	cfg, err := job.req.coreConfig()
	if err != nil {
		fail(err)
		return
	}
	entry, err := s.acquire(job, workerID, phase)
	if err != nil {
		fail(err)
		return
	}
	fs, err := job.req.rhsCols(entry.sys)
	if err != nil {
		fail(err)
		return
	}

	// Plan: the plan span carries the full decision and its structural
	// evidence as attributes, and covers the one preconditioner checkout,
	// at the planned step count. If a tuned step count's build fails, the
	// candidate is recorded as infeasible and the configured M runs.
	planSp := job.trace.Start("plan").SetWorker(workerID)
	in, pl, mode, tdec := s.planFor(entry, cfg, len(fs))
	sp, pc, err := entry.checkout(pl.M)
	if err != nil && pl.M != cfg.M {
		s.tuner.Observe(entry.key, pl.Signature(), plan.Observation{})
		pl.M = cfg.M
		sp, pc, err = entry.checkout(pl.M)
	}
	if err != nil {
		planSp.End()
		fail(fmt.Errorf("engine: preconditioner rebuild failed for %s: %w", entry.key, err))
		return
	}
	defer sp.pool.Put(pc)
	for k, v := range pl.Attrs() {
		planSp.SetAttr(k, v)
	}
	planSp.SetAttr("probe", in.Probe.Attrs())
	planSp.SetAttr("tuning", mode.String())
	if tdec.Source != "" {
		planSp.SetAttr("plan_source", tdec.Source)
	}
	planSp.End()

	opts := cg.Options{
		Tol:            cfg.Tol,
		RelResidualTol: cfg.RelResidualTol,
		MaxIter:        cfg.MaxIter,
		History:        cfg.History,
		Workers:        pl.Workers,
		Ctx:            job.ctx,
		Interleave:     pl.Interleave,
	}
	if opts.Tol <= 0 && opts.RelResidualTol <= 0 {
		opts.Tol = 1e-6
	}

	// Materialize the planned backend, memoized on the entry so setup
	// failures surface like any other build error: a decomposed plan
	// partitions the plate P ways, a DIA plan converts the matrix.
	var solve tileSolver
	switch pl.Backend {
	case plan.BackendDecomposed:
		if entry.plate == nil {
			fail(errors.New("engine: decomposed backend needs a plate-backed problem (general systems carry no mesh to partition)"))
			return
		}
		if !in.FusedSweep(cfg.M) {
			fail(errors.New("engine: decomposed backend implements the multicolor SSOR sweep at ω = 1; pick splitting ssor-multicolor (or m = 0) or a single-matrix backend"))
			return
		}
		decSp := job.trace.Start("decompose").SetWorker(workerID)
		dec, err := entry.getDecomp(pl.Subdomains)
		if err != nil {
			decSp.End()
			fail(err)
			return
		}
		decSp.SetAttr("subdomains", dec.P).
			SetAttr("strategy", "row-strips").
			SetAttr("halo_fraction", dec.HaloFraction()).
			End()
		solve = s.decompSolver(job, dec, fs, pl.M, sp.alphas, opts, workerID)
	case plan.BackendDIA:
		end := phase("dia_convert")
		dia, err := entry.getDIA()
		end()
		if err != nil {
			fail(err)
			return
		}
		solve = s.matrixSolver(job, dia, pc, fs, opts, ws, workerID)
	default:
		solve = s.matrixSolver(job, entry.sys.K, pc, fs, opts, ws, workerID)
	}
	s.countSolve(pl.Backend)

	// Execute + emit.
	execStart := time.Now()
	res, err := s.runTiles(job, pl.Tiles, len(fs), entry.plate, solve)
	execSeconds := time.Since(execStart).Seconds()
	emitEnd := phase("emit")
	res.Precond = sp.name
	res.Backend = pl.Backend.String()
	info := planInfo(pl, mode, tdec)
	res.Plan = &info
	res.IntervalLo, res.IntervalHi = sp.interval.Lo, sp.interval.Hi
	if sp.alphas.M() > 0 {
		a := sp.alphas
		res.Alphas = &a
	}
	emitEnd()

	// Feedback: fold the executed plan's realized throughput back into the
	// tuner's observation store. Only clean solves of cached problems count
	// — errors and cancellations would poison the estimates, a throwaway
	// entry has no store to feed, and a decomposed plan's execution shape is
	// owned by the mesh partition, not the tuner.
	if mode == plan.TuningAdapt && err == nil && entry.key != "" && pl.Backend != plan.BackendDecomposed {
		rhsPerSec := 0.0
		if execSeconds > 0 {
			rhsPerSec = float64(len(fs)) / execSeconds
		}
		iterSec := execSeconds
		if res.Iterations > 0 {
			iterSec = execSeconds / float64(res.Iterations)
		}
		job.trace.Start("feedback").SetWorker(workerID).
			SetAttr("rhs_per_second", rhsPerSec).
			SetAttr("seconds_per_iteration", iterSec).
			End()
		s.tuner.Observe(entry.key, pl.Signature(), plan.Observation{RHSPerSec: rhsPerSec, IterSeconds: iterSec})
		s.cmu.Lock()
		s.planFeedback++
		s.cmu.Unlock()
		s.hPlanRHS.Observe(rhsPerSec)
	}
	if err != nil {
		if cerr := job.ctx.Err(); cerr != nil {
			// The trace of a cancelled job ends with a terminal marker span,
			// so a replayed timeline shows where the solve was cut off.
			job.trace.Start("cancelled").SetWorker(workerID).SetAttr("reason", cerr.Error()).End()
		}
		s.transition(job, JobFailed, res, err)
		return
	}
	s.transition(job, JobDone, res, nil)
}

// acquire resolves the job's cache entry, building it on first use. A
// keyed request looks its entry up (the LRU insert and eviction included);
// a by-reference job holds the entry it resolved at submission, whose
// build is done; a keyless request builds a throwaway entry the cache
// never sees, which counts no hit or miss. cache_wait covers the lookup.
// If this job runs the build, the build's stage spans (assemble,
// splitting_build, …) land on its trace as their own leaves: the first one
// closes cache_wait so the spans never overlap, and a warm hit keeps
// cache_wait as the only span.
func (s *Engine) acquire(job *Job, workerID int, phase func(string, ...any) func()) (*cacheEntry, error) {
	waitSp := job.trace.Start("cache_wait").SetWorker(workerID)
	defer waitSp.End()
	entry, hit := job.entry, true
	if entry == nil {
		if key := job.req.CacheKey(); key != "" {
			entry, hit = s.cache.get(key)
		} else {
			entry, hit = &cacheEntry{}, false
		}
	}
	waitSp.SetAttr("hit", hit)
	entry.once.Do(func() {
		waitSp.SetAttr("built", true)
		entry.build(&job.req, func(stage string, attrs ...any) func() {
			waitSp.End()
			return phase(stage, attrs...)
		})
	})
	if entry.err != nil {
		s.cache.drop(entry)
		return nil, entry.err
	}
	s.mu.Lock()
	job.cacheHit = hit
	s.mu.Unlock()
	return entry, nil
}

// countSolve attributes one job to the matvec backend it resolved to.
func (s *Engine) countSolve(b plan.Backend) {
	s.cmu.Lock()
	switch b {
	case plan.BackendDIA:
		s.solvesDIA++
	case plan.BackendDecomposed:
		s.solvesDecomposed++
	default:
		s.solvesCSR++
	}
	s.cmu.Unlock()
}

// countTile accounts one executed tile and its block iterations.
func (s *Engine) countTile(iters int) {
	s.cmu.Lock()
	s.tilesExecuted++
	s.totalIters += int64(iters)
	s.cmu.Unlock()
}

// A tileSolver solves the cases of one plan tile (ti numbers the tile) as
// one block solve and reports it; done emits each case as it finishes.
// Each backend's solver opens its own trace spans. The returned error
// joins the tile's case failures, which BlockStats.ColErrs holds
// unwrapped.
type tileSolver func(ti int, cases []int, done caseDone) (cg.BlockStats, error)

// caseDone emits case cases[col] of a tile: u is its solution in the
// solver's ordering, st its recurrence report, err its failure.
type caseDone func(col int, u []float64, st cg.Stats, err error)

// runTiles is the execute loop every backend shares: the plan's tiles run
// in order through solve, and every case is emitted the moment it
// finishes — a retired column of a block solve, or a decomposed case — so
// early-converging load cases are visible to stream subscribers while the
// slowest is still iterating. A one-case job reports like a scalar solve:
// its case at the top level instead of a cases array, and the case's own
// error.
func (s *Engine) runTiles(job *Job, tiles [][]int, rhs int, plate *fem.Plate, solve tileSolver) (*JobResult, error) {
	job.initCases(rhs)
	scalar := rhs == 1
	res := &JobResult{RHS: rhs, Converged: true}
	var errs []error
	var canceled error
	for ti, cases := range tiles {
		if cerr := job.ctx.Err(); cerr != nil {
			// Canceled between tiles: the remaining cases fail without
			// running (their events still fire, so streams see every case);
			// the cancellation joins the job error once, not once per tile.
			for _, c := range cases {
				job.caseFinished(c, CaseResult{Error: cerr.Error()})
			}
			res.Converged = false
			canceled = cerr
			continue
		}
		st, err := solve(ti, cases, func(col int, u []float64, cs cg.Stats, err error) {
			s.hCaseIters.Observe(float64(cs.Iterations))
			cr := CaseResult{
				Converged:   cs.Converged,
				Iterations:  cs.Iterations,
				FinalUDiff:  cs.FinalUDiff,
				FinalRelRes: cs.FinalRelRes,
				CGStats:     &cs,
			}
			if err != nil {
				cr.Error = err.Error()
			}
			if !job.req.OmitSolution {
				cr.U = u
				if plate != nil {
					cr.Nodes, cr.NodeU, cr.NodeV = plate.NodeDisplacements(u)
				}
			}
			job.caseFinished(cases[col], cr)
		})
		s.countTile(st.Iterations)
		res.Iterations += st.Iterations
		res.MatVecs += st.SpMMs
		res.PrecondApps += st.BlockPrecondApps
		res.InnerProducts += st.InnerProducts
		if !st.Converged {
			res.Converged = false
		}
		switch {
		case err == nil:
		case scalar:
			errs = append(errs, st.ColErrs[0])
		default:
			errs = append(errs, fmt.Errorf("tile %d (cases %d–%d): %w", ti, cases[0], cases[len(cases)-1], err))
		}
	}
	if canceled != nil {
		errs = append(errs, canceled)
	}
	cases := job.snapshotCases()
	for i := range cases {
		res.FinalUDiff = max(res.FinalUDiff, cases[i].FinalUDiff)
		res.FinalRelRes = max(res.FinalRelRes, cases[i].FinalRelRes)
	}
	if scalar {
		c := cases[0]
		res.U, res.Nodes, res.NodeU, res.NodeV, res.CGStats = c.U, c.Nodes, c.NodeU, c.NodeV, c.CGStats
	} else {
		res.Cases = cases
	}
	return res, errors.Join(errs...)
}

// matrixSolver solves a tile as one block PCG solve over op, the
// backend's form of the system matrix, sharing the worker's workspace.
// Every column retirement — converged, broken down, or canceled — emits
// its case through the deflation hook. A one-case job traces a "solve"
// span instead of a tile span.
func (s *Engine) matrixSolver(job *Job, op sparse.Operator, pc precond.Preconditioner, fs [][]float64, opts cg.Options, ws *cg.Workspace, workerID int) tileSolver {
	n, _ := op.Dims()
	scalar := len(fs) == 1
	return func(ti int, cases []int, done caseDone) (cg.BlockStats, error) {
		cols := make([][]float64, len(cases))
		for i, c := range cases {
			cols[i] = fs[c]
		}
		u := vec.NewMulti(n, len(cases))
		topts := opts
		// The convergence observer sees tile-local column indices; remap
		// them to the job's case numbering so a multi-tile batch's curves
		// stay distinguishable.
		topts.Observer = tileObserver{log: job.conv, cases: cases}
		topts.OnColumnDone = func(col int, cs cg.ColumnStats) {
			// A retired column is never written again; the capped slice
			// keeps an append from reaching the next column.
			done(col, u.Data[col*n:(col+1)*n:(col+1)*n], cs.Stats, cs.Err)
		}
		span := "tile"
		if scalar {
			span = "solve"
		}
		sp := job.trace.Start(span).SetWorker(workerID)
		if !scalar {
			sp.SetAttr("tile", ti).
				SetAttr("case_first", cases[0]).
				SetAttr("case_last", cases[len(cases)-1])
		}
		st, err := cg.SolveBlockInto(u, op, vec.MultiFromCols(cols), pc, topts, ws)
		sp.SetAttr("interleaved", st.Interleaved).SetAttr("converged", st.Converged)
		sp.SetIterations(st.Iterations).End()
		return st, err
	}
}

// decompSolver solves a tile's one case as a parallel solve over dec's
// subdomains: a goroutine per subdomain, border values moving over the
// link fabric, inner products combining up the reduction tree. A case
// occupies all P subdomain goroutines, so a decomposed plan gives every
// case a tile of its own. Each case traces a "solve" span and its
// per-subdomain stage breakdown.
func (s *Engine) decompSolver(job *Job, dec *decomp.Decomposition, fs [][]float64, m int, alphas poly.Alphas, opts cg.Options, workerID int) tileSolver {
	dopt := decomp.Options{
		M:              m,
		Tol:            opts.Tol,
		RelResidualTol: opts.RelResidualTol,
		MaxIter:        opts.MaxIter,
		Ctx:            job.ctx,
	}
	if m > 0 {
		dopt.Alphas = alphas.Coeffs
	}
	return func(_ int, cases []int, done caseDone) (cg.BlockStats, error) {
		ci := cases[0]
		copt := dopt
		copt.OnIteration = func(iter int, udiff, relres float64) {
			job.conv.ObserveIteration(ci, iter, udiff, relres)
		}
		start := time.Now()
		sp := job.trace.Start("solve").SetWorker(workerID).SetAttr("case", ci)
		u, st, err := dec.Solve(fs[ci], copt)
		sp.SetIterations(st.Iterations).SetAttr("converged", st.Converged).End()
		recordSubSpans(job.trace, ci, start, st.Subs)
		done(0, u, st.Stats, err)
		return cg.BlockStats{
			RHS:              1,
			Iterations:       st.Iterations,
			SpMMs:            st.MatVecs,
			BlockPrecondApps: st.PrecondApps,
			InnerProducts:    st.InnerProducts,
			Converged:        st.Converged,
			ColErrs:          []error{err},
		}, err
	}
}

// recordSubSpans attributes one decomposed case's per-subdomain time
// breakdown to the job trace: a halo_exchange, local_sweep and reduce span
// per rank, anchored at the case's start. These are the one deliberate
// exception to the trace's non-overlapping-leaves convention — the P
// subdomains ran concurrently, so their stage durations sum past the
// case's wall time by design.
func recordSubSpans(tr *obs.Trace, ci int, start time.Time, subs []decomp.SubStats) {
	dur := func(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }
	for _, ss := range subs {
		tr.Record("halo_exchange", start, dur(ss.HaloSeconds)).SetAttr("subdomain", ss.Rank).SetAttr("case", ci)
		tr.Record("local_sweep", start, dur(ss.SweepSeconds)).SetAttr("subdomain", ss.Rank).SetAttr("case", ci)
		tr.Record("reduce", start, dur(ss.ReduceSeconds)).SetAttr("subdomain", ss.Rank).SetAttr("case", ci)
	}
}
