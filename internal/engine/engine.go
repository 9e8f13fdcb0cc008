package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
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
	"repro/internal/mesh"
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
	// TileBudgetBytes bounds the multivector working set of one batch
	// tile: the planner splits wide batches (s ≫ 8) into cache-sized
	// column tiles executed sequentially (0 = plan.DefaultBudgetBytes).
	TileBudgetBytes int
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
	// not pin their own ("off", "observe" or "adapt"; empty means adapt):
	// whether the engine folds each executed plan's realized throughput
	// back into later plan decisions. See plan.TuningMode.
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
// job follows the plan → execute → emit pipeline: the planner (one shared
// instance of plan.Planner) resolves the request into an execution plan,
// the worker runs the plan's tiles, and per-case completions are emitted to
// the job's state table and stream subscribers as they happen.
type Engine struct {
	cfg      Config
	planner  plan.Planner
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
		cfg:     cfg,
		planner: plan.Planner{BudgetBytes: cfg.TileBudgetBytes},
		queue:   make(chan *Job, cfg.QueueDepth),
		cache:   newCache(cfg.CacheSize),
		lat:     newLatencyRing(cfg.LatencyWindow),
		logger:  logger,
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
	if err := req.Validate(); err != nil {
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
// anything. When the request's problem is already cached its memoized
// structure probe answers immediately; otherwise the system is assembled
// just for the probe (never inserted into the cache, and no preconditioner
// or spectral interval is built — planning must stay far cheaper than
// solving). Either way a later solve of the same request reports an
// identical JobResult.Plan — including the self-tuning evidence: a warm
// problem past the observation gate explains its decision with every
// candidate's measured throughput and cost-model prior.
func (s *Engine) PlanRequest(req Request) (PlanInfo, error) {
	if err := req.Validate(); err != nil {
		return PlanInfo{}, err
	}
	cfg, err := req.coreConfig()
	if err != nil {
		return PlanInfo{}, err
	}
	// The peek never creates or touches an entry; an entry only exists if a
	// solve created it, in which case it is already built (or building —
	// the once blocks until that build publishes, exactly like a solve
	// joining the build race). A by-reference request cannot build, so it
	// plans only from an entry whose build has finished.
	var entry *cacheEntry
	if req.System.byReference() {
		if entry, err = s.resolveByReference(&req, false); err != nil {
			return PlanInfo{}, err
		}
	} else if e, ok := s.cache.peek(req.CacheKey()); ok {
		e.once.Do(func() { e.build(&req, nil) })
		if e.err == nil {
			entry = e
		}
	}
	var probe *plan.Probe
	var plate *fem.Plate
	if pb := req.Prebuilt; pb != nil {
		plate = pb.Plate
		if pb.Probe != nil {
			probe = pb.Probe
		}
	}
	if probe == nil && entry != nil {
		probe = entry.structureProbe()
		plate = entry.plate
	}
	if probe == nil {
		sys, pl, err := req.assemble()
		if err != nil {
			return PlanInfo{}, err
		}
		p := plan.NewProbe(sys.K)
		probe = &p
		plate = pl
	}
	in := s.planInputs(cfg, probe, plate, req.batchSize())
	pl := s.plannerFor(cfg).Plan(in)
	mode := s.tuningFor(cfg)
	var dec plan.Decision
	if mode != plan.TuningOff && entry != nil {
		pl, dec = s.tuner.Decide(entry.key, s.plannerFor(cfg), in, pl, s.priorFor(entry), mode == plan.TuningAdapt)
	}
	return planInfo(pl, mode, dec), nil
}

// planInputs assembles the planner's inputs for one solve: the structure
// probe, whether the preconditioner has the fused multicolor sweep, and —
// for plate-backed problems whose preconditioner the decomposed path can
// run — the mesh facts that enable the decomposed backend. PlanRequest and
// runJob share it, so an offline plan always matches the plan the solve
// runs.
func (s *Engine) planInputs(cfg core.Config, probe *plan.Probe, plate *fem.Plate, rhs int) plan.Inputs {
	in := plan.Inputs{
		Probe:      probe,
		Policy:     cfg.Backend,
		RHS:        rhs,
		M:          cfg.M,
		Workers:    s.workersFor(cfg),
		Kernel:     cfg.Kernel,
		PanelSweep: cfg.Splitting == core.SSORMulticolor && (cfg.Omega == 0 || cfg.Omega == 1),
	}
	if plate != nil && in.FusedSweep(cfg.M) {
		in.Decomp = &plan.DecompInputs{
			Rows:      plate.Grid.Rows,
			FreeNodes: len(plate.Free),
			Requested: cfg.Subdomains,
			MaxProcs:  s.workersFor(cfg),
		}
	}
	return in
}

// plannerFor returns the planner a resolved config runs under: the engine's
// shared planner, unless the (in-process, full-config) request pins its own
// tile budget.
func (s *Engine) plannerFor(cfg core.Config) plan.Planner {
	if cfg.TileBudgetBytes > 0 {
		return plan.Planner{BudgetBytes: cfg.TileBudgetBytes}
	}
	return s.planner
}

// workersFor resolves the kernel fan-out budget for a job: the engine's
// per-solve worker budget, unless the (in-process, full-config) request
// pins its own.
func (s *Engine) workersFor(cfg core.Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return s.cfg.WorkerBudget
}

// tuningFor resolves a solve's feedback policy: the request's knob, then
// the engine's session default, then adapt. Unknown names are rejected at
// Validate, so parsing cannot fail on the request path; a malformed
// programmatic engine default falls back to off (the static planner).
func (s *Engine) tuningFor(cfg core.Config) plan.TuningMode {
	name := cfg.Tuning
	if name == "" {
		name = s.cfg.Tuning
	}
	mode, err := plan.ParseTuning(strings.ToLower(name))
	if err != nil {
		return plan.TuningOff
	}
	return mode
}

// priorFor derives the tuner's cost-model prior from the entry's memoized
// vectorsim analysis. Eq. (4.1) prices one iteration at A + m·B while the
// iteration count of m-step PCG scales like 1/√(m+1), so a candidate step
// count's predicted throughput relative to the reference is t(ref)/t(cand)
// with t(m) = (A + m·B)/√(m+1). The model holds no opinion on non-M
// differences (ratio 1), and degenerate systems get no prior at all.
func (s *Engine) priorFor(entry *cacheEntry) plan.PriorFunc {
	cb, err := entry.costModel()
	if err != nil || cb.A <= 0 {
		return nil
	}
	t := func(m int) float64 {
		return (cb.A + float64(m)*cb.B) / math.Sqrt(float64(m)+1)
	}
	return func(ref, cand plan.Signature) float64 {
		if cand.M == ref.M {
			return 1
		}
		return t(ref.M) / t(cand.M)
	}
}

// planInfo shapes a resolved plan for job results and the HTTP API,
// including the tuning evidence: which policy governed the decision, how
// the plan was chosen, and every candidate considered with its measured
// and predicted throughput.
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
				Kernel:              c.Signature.Kernel,
				MeasuredRHSPerSec:   c.Measured,
				Observations:        c.Observations,
				SecondsPerIteration: c.IterSeconds,
				PredictedRHSPerSec:  c.Prior,
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

// runJob is the plan → execute → emit pipeline for one job: resolve the
// problem (via the cache when the request is keyed), check out a
// preconditioner, let the planner turn the request's shape into an
// execution plan, then run the plan's tiles, emitting each case's result
// the moment its column retires. A batched request runs as one job against
// one cache entry and one preconditioner checkout; every block traversal
// is shared across the tile's columns.
func (s *Engine) runJob(job *Job, ws *cg.Workspace, workerID int) {
	s.transition(job, JobRunning, nil, nil)
	s.logger.Debug("job started", "job", job.id, "worker", workerID)

	// All stage spans are leaves — no span nests inside another — so the
	// trace's span durations sum to at most the job's wall time.
	phase := func(name string) func() {
		return job.trace.Start(name).SetWorker(workerID).End
	}

	cfg, err := job.req.coreConfig()
	if err != nil {
		s.transition(job, JobFailed, nil, err)
		return
	}

	var (
		sys    core.System
		plate  *fem.Plate
		pc     precond.Preconditioner
		iv     eigen.Interval
		alphas poly.Alphas
		name   string
		entry  *cacheEntry // non-nil on the cached path
	)
	if key := job.req.CacheKey(); key != "" {
		// cache_wait covers entry acquisition (the LRU lookup, insert and
		// eviction included) and the preconditioner checkout. If this job
		// loses the build race, the build's stage spans (assemble,
		// splitting_build, …) land on this trace as their own leaves: the
		// first one closes cache_wait so the spans never overlap, and a warm
		// hit keeps cache_wait as the only span.
		waitSp := job.trace.Start("cache_wait").SetWorker(workerID)
		// existed=false only for the requester that created the entry; every
		// later requester (even one blocking on the first build in once.Do)
		// reuses the assembled system and estimated interval. A
		// by-reference job resolved its built entry at submission and has no
		// triplets to build from, so it never runs the entry's once.
		entry = job.entry
		byRef := entry != nil
		existed := true
		if !byRef {
			entry, existed = s.cache.get(key)
		}
		waitSp.SetAttr("hit", existed)
		waitEnded := false
		endWait := func() {
			if !waitEnded {
				waitEnded = true
				waitSp.End()
			}
		}
		if !byRef {
			entry.once.Do(func() {
				waitSp.SetAttr("built", true)
				entry.build(&job.req, func(stage string) func() {
					endWait()
					return phase(stage)
				})
			})
		}
		if entry.err != nil {
			endWait()
			s.cache.drop(entry)
			s.transition(job, JobFailed, nil, entry.err)
			return
		}
		s.mu.Lock()
		job.cacheHit = existed
		s.mu.Unlock()
		sys, plate, iv, alphas, name = entry.sys, entry.plate, entry.interval, entry.alphas, entry.precond
		var cerr error
		pc, cerr = entry.checkout()
		endWait()
		if cerr != nil {
			s.transition(job, JobFailed, nil, fmt.Errorf("engine: preconditioner rebuild failed for %s: %w", key, cerr))
			return
		}
		defer entry.release(pc)
	} else {
		end := phase("assemble")
		sys, plate, err = job.req.assemble()
		end()
		if err != nil {
			s.transition(job, JobFailed, nil, err)
			return
		}
		pc, alphas, iv, err = core.BuildPreconditionerPhased(sys, cfg, phase)
		if err != nil {
			s.transition(job, JobFailed, nil, err)
			return
		}
		name = pc.Name()
	}

	fs, ferr := job.req.rhsCols(sys)
	if ferr != nil {
		s.transition(job, JobFailed, nil, ferr)
		return
	}

	// Plan: the planner is the single place the request's shape — matrix
	// structure, batch width, budgets — becomes an execution decision. On
	// the cached path the structure probe is memoized in the entry (seeded
	// from the caller's own memo for prebuilt problems), so repeated solves
	// of a cached problem never rescan the pattern. The plan span carries
	// the full decision and its structural evidence as attributes.
	planSp := job.trace.Start("plan").SetWorker(workerID)
	var probe *plan.Probe
	switch {
	case entry != nil:
		probe = entry.structureProbe()
	case job.req.Prebuilt != nil && job.req.Prebuilt.Probe != nil:
		probe = job.req.Prebuilt.Probe
	default:
		p := plan.NewProbe(sys.K)
		probe = &p
	}
	in := s.planInputs(cfg, probe, plate, len(fs))
	pl := s.plannerFor(cfg).Plan(in)

	// Close the loop: past the observation gate a warm problem re-plans
	// from its measured throughput (adapt) or at least explains what the
	// measurements say (observe). A tuned step count checks out an
	// alternate-M preconditioner from the entry; if that build fails the
	// candidate is recorded as infeasible and the static M runs.
	mode := s.tuningFor(cfg)
	var tdec plan.Decision
	if mode != plan.TuningOff && entry != nil {
		static := pl
		tuned, d := s.tuner.Decide(entry.key, s.plannerFor(cfg), in, static, s.priorFor(entry), mode == plan.TuningAdapt)
		tdec = d
		if mode == plan.TuningAdapt {
			if tuned.M != static.M {
				p2, a2, n2, rel2, aerr := entry.checkoutM(tuned.M)
				if aerr != nil {
					s.tuner.Observe(entry.key, tuned.Signature(), plan.Observation{})
					tuned.M = static.M
				} else {
					// The original checkout's deferred release captured the
					// original pc; the alternate returns to its own pool.
					pc, alphas, name = p2, a2, n2
					defer rel2(p2)
				}
			}
			pl = tuned
		}
	}

	for k, v := range pl.Attrs() {
		planSp.SetAttr(k, v)
	}
	planSp.SetAttr("probe", probe.Attrs())
	planSp.SetAttr("tuning", mode.String())
	if tdec.Source != "" {
		planSp.SetAttr("plan_source", tdec.Source)
	}
	planSp.End()

	// A decomposed plan replaces the single-matrix operator with a P-way
	// mesh partition: resolve it (memoized on the cache entry for keyed
	// requests) before execution, so setup failures surface like any other
	// build error.
	var dec *decomp.Decomposition
	if pl.Backend == plan.BackendDecomposed {
		if plate == nil {
			s.transition(job, JobFailed, nil, errors.New("engine: decomposed backend needs a plate-backed problem (general systems carry no mesh to partition)"))
			return
		}
		if !in.FusedSweep(cfg.M) {
			s.transition(job, JobFailed, nil, errors.New("engine: decomposed backend implements the multicolor SSOR sweep at ω = 1; pick splitting ssor-multicolor (or m = 0) or a single-matrix backend"))
			return
		}
		decSp := job.trace.Start("decompose").SetWorker(workerID)
		var derr error
		if entry != nil {
			dec, derr = entry.getDecomp(pl.Subdomains)
		} else {
			dec, derr = decomp.New(decomp.PlateProblem(plate), pl.Subdomains, mesh.RowStrips)
		}
		if derr != nil {
			decSp.End()
			s.transition(job, JobFailed, nil, derr)
			return
		}
		decSp.SetAttr("subdomains", dec.P).
			SetAttr("strategy", "row-strips").
			SetAttr("halo_fraction", dec.HaloFraction()).
			End()
	}

	// Materialize the planned backend's operator (the DIA conversion is
	// cached next to the CSR on the cached path).
	var op sparse.Operator = sys.K
	if pl.Backend == core.BackendDIA {
		end := phase("dia_convert")
		var dia *sparse.DIA
		var derr error
		if entry != nil {
			dia, derr = entry.getDIA()
		} else {
			dia, derr = sparse.NewDIAFromCSR(sys.K)
		}
		end()
		if derr != nil {
			s.transition(job, JobFailed, nil, derr)
			return
		}
		op = dia
	}
	s.countSolve(pl.Backend)

	opts := cg.Options{
		Tol:            cfg.Tol,
		RelResidualTol: cfg.RelResidualTol,
		MaxIter:        cfg.MaxIter,
		History:        cfg.History,
		Workers:        pl.Workers,
		Ctx:            job.ctx,
		Interleave:     pl.Interleave,
		Kernel:         cfg.Kernel,
	}
	if opts.Tol <= 0 && opts.RelResidualTol <= 0 {
		opts.Tol = 1e-6
	}

	// Execute + emit.
	job.initCases(len(fs))
	var res *JobResult
	execStart := time.Now()
	if dec != nil {
		res, err = s.runDecomposed(job, dec, plate, fs, cfg, alphas, opts, workerID)
	} else {
		res, err = s.runTiles(job, op, plate, pc, fs, pl, opts, ws, workerID)
	}
	execSeconds := time.Since(execStart).Seconds()
	emitEnd := phase("emit")
	res.Precond = name
	res.Backend = pl.Backend.String()
	info := planInfo(pl, mode, tdec)
	res.Plan = &info
	res.IntervalLo, res.IntervalHi = iv.Lo, iv.Hi
	if alphas.M() > 0 {
		a := alphas
		res.Alphas = &a
	}
	emitEnd()

	// Feedback: fold the executed plan's realized throughput back into the
	// tuner's observation store. Only clean cached solves count — errors
	// and cancellations would poison the estimates, uncached problems have
	// no store to feed, and a decomposed plan's execution shape is owned by
	// the mesh partition, not the tuner.
	if mode != plan.TuningOff && err == nil && entry != nil && pl.Backend != plan.BackendDecomposed {
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

// runDecomposed is the domain-decomposed execute path: every case runs as
// one parallel solve over dec's subdomains — a goroutine per subdomain,
// border values moving over the link fabric, inner products combining up
// the reduction tree. Cases run sequentially because a single case already
// occupies all P subdomain goroutines; per-case completions stream exactly
// like the tiled path's.
func (s *Engine) runDecomposed(job *Job, dec *decomp.Decomposition, plate *fem.Plate, fs [][]float64, cfg core.Config, alphas poly.Alphas, opts cg.Options, workerID int) (*JobResult, error) {
	dopt := decomp.Options{
		M:              cfg.M,
		Tol:            opts.Tol,
		RelResidualTol: opts.RelResidualTol,
		MaxIter:        opts.MaxIter,
		Ctx:            job.ctx,
	}
	if cfg.M > 0 {
		dopt.Alphas = alphas.Coeffs
	}
	res := &JobResult{RHS: len(fs), Converged: true}
	var errs []error
	var canceled error
	for ci, f := range fs {
		if cerr := job.ctx.Err(); cerr != nil {
			job.caseFinished(ci, CaseResult{Error: cerr.Error()})
			res.Converged = false
			canceled = cerr
			continue
		}
		copt := dopt
		caseIdx := ci
		copt.OnIteration = func(iter int, udiff, relres float64) {
			job.conv.ObserveIteration(caseIdx, iter, udiff, relres)
		}
		start := time.Now()
		sp := job.trace.Start("solve").SetWorker(workerID).SetAttr("case", ci)
		u, st, err := dec.Solve(f, copt)
		sp.SetIterations(st.Iterations).SetAttr("converged", st.Converged).End()
		recordSubSpans(job.trace, ci, start, st.Subs)
		s.countTile(st.Iterations)
		s.hCaseIters.Observe(float64(st.Iterations))
		res.Iterations += st.Iterations
		res.MatVecs += st.MatVecs
		res.PrecondApps += st.PrecondApps
		res.InnerProducts += st.InnerProducts
		if !st.Converged {
			res.Converged = false
		}
		cgst := st.Stats
		cr := CaseResult{
			Converged:   st.Converged,
			Iterations:  st.Iterations,
			FinalUDiff:  st.FinalUDiff,
			FinalRelRes: st.FinalRelRes,
			CGStats:     &cgst,
		}
		if err != nil {
			cr.Error = err.Error()
			errs = append(errs, fmt.Errorf("case %d: %w", ci, err))
		}
		if !job.req.OmitSolution {
			cr.U = u
			cr.Nodes, cr.NodeU, cr.NodeV = plateDisplacements(plate, u)
		}
		job.caseFinished(ci, cr)
		if len(fs) == 1 {
			res.FinalUDiff = st.FinalUDiff
			res.FinalRelRes = st.FinalRelRes
			res.CGStats = &cgst
			res.U = cr.U
			res.Nodes, res.NodeU, res.NodeV = cr.Nodes, cr.NodeU, cr.NodeV
		}
	}
	if canceled != nil {
		errs = append(errs, canceled)
	}
	if len(fs) > 1 {
		res.Cases = job.snapshotCases()
		for i := range res.Cases {
			res.FinalUDiff = max(res.FinalUDiff, res.Cases[i].FinalUDiff)
			res.FinalRelRes = max(res.FinalRelRes, res.Cases[i].FinalRelRes)
		}
	}
	return res, errors.Join(errs...)
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

// runTiles is the single-matrix execute path: the plan's column tiles run
// as sequential block solves sharing the worker's workspace, and every
// column retirement — converged, broken down, or canceled — emits that
// case's result immediately via the deflation hook, so early-converging
// load cases are visible to stream subscribers while the slowest column is
// still iterating. op is the backend-resolved form of the system matrix. A
// one-column job runs the same way and reports like a scalar solve: its
// case at the top level instead of a cases array, a "solve" span instead
// of a tile span, and the column's own error.
func (s *Engine) runTiles(job *Job, op sparse.Operator, plate *fem.Plate, pc precond.Preconditioner, fs [][]float64, pl plan.Plan, opts cg.Options, ws *cg.Workspace, workerID int) (*JobResult, error) {
	n, _ := op.Dims()
	scalar := len(fs) == 1
	res := &JobResult{RHS: len(fs), Converged: true}
	var errs []error
	var canceled error
	for ti, tileCols := range pl.Tiles {
		if cerr := job.ctx.Err(); cerr != nil {
			// Canceled between tiles: the remaining cases fail without
			// running (their events still fire, so streams see every case);
			// the cancellation joins the job error once, not once per tile.
			for _, c := range tileCols {
				job.caseFinished(c, CaseResult{Error: cerr.Error()})
			}
			res.Converged = false
			canceled = cerr
			continue
		}
		cols := make([][]float64, len(tileCols))
		for i, c := range tileCols {
			cols[i] = fs[c]
		}
		u := vec.NewMulti(n, len(tileCols))
		topts := opts
		// The convergence observer sees tile-local column indices; remap
		// them to the job's case numbering so a multi-tile batch's curves
		// stay distinguishable.
		topts.Observer = tileObserver{log: job.conv, cases: tileCols}
		topts.OnColumnDone = func(col int, cs cg.ColumnStats) {
			s.hCaseIters.Observe(float64(cs.Stats.Iterations))
			cr := CaseResult{
				Converged:   cs.Stats.Converged,
				Iterations:  cs.Stats.Iterations,
				FinalUDiff:  cs.Stats.FinalUDiff,
				FinalRelRes: cs.Stats.FinalRelRes,
				CGStats:     &cs.Stats,
			}
			if cs.Err != nil {
				cr.Error = cs.Err.Error()
			}
			if !job.req.OmitSolution {
				// A retired column is never written again; the capped slice
				// keeps an append from reaching the next column.
				cr.U = u.Data[col*n : (col+1)*n : (col+1)*n]
				cr.Nodes, cr.NodeU, cr.NodeV = plateDisplacements(plate, cr.U)
			}
			job.caseFinished(tileCols[col], cr)
		}
		span := "tile"
		if scalar {
			span = "solve"
		}
		sp := job.trace.Start(span).SetWorker(workerID)
		if !scalar {
			sp.SetAttr("tile", ti).
				SetAttr("case_first", tileCols[0]).
				SetAttr("case_last", tileCols[len(tileCols)-1])
		}
		st, err := cg.SolveBlockInto(u, op, vec.MultiFromCols(cols), pc, topts, ws)
		sp.SetAttr("kernel", st.Kernel).SetAttr("interleaved", st.Interleaved).SetAttr("converged", st.Converged)
		sp.SetIterations(st.Iterations).End()
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
			errs = append(errs, fmt.Errorf("tile %d (cases %d–%d): %w", ti, tileCols[0], tileCols[len(tileCols)-1], err))
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

// plateDisplacements maps a colored-ordering solution back to per-node
// displacements; nil for non-plate problems.
func plateDisplacements(plate *fem.Plate, u []float64) (nodes []int, nu, nv []float64) {
	if plate == nil {
		return nil, nil, nil
	}
	natural := plate.UncolorSolution(u)
	nodes = plate.Free
	nu = make([]float64, len(plate.Free))
	nv = make([]float64, len(plate.Free))
	for k := range plate.Free {
		nu[k] = natural[2*k]
		nv[k] = natural[2*k+1]
	}
	return nodes, nu, nv
}
