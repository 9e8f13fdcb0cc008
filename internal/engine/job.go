package engine

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/cg"
	"repro/internal/obs"
	"repro/internal/poly"
)

// JobState is the lifecycle of a submitted solve.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// PlanInfo is the resolved execution plan recorded on a job result: the
// decisions the planner made for this request (see internal/plan). The
// same request re-planned offline (Engine.PlanRequest or POST /v1/plan)
// yields the same PlanInfo.
type PlanInfo struct {
	// Backend is the resolved matvec storage ("csr", "dia" or
	// "decomposed").
	Backend string `json:"backend"`
	// Tiles partitions the batch's column indices into the groups executed
	// as sequential block solves (one case per tile on the decomposed
	// backend).
	Tiles [][]int `json:"tiles"`
	// Workers is the kernel goroutine fan-out each tile ran with.
	Workers int `json:"workers"`
	// M is the preconditioner step count.
	M int `json:"m"`
	// Subdomains is the processor count of a decomposed plan: the mesh is
	// partitioned this many ways, each subdomain run by a dedicated
	// goroutine (0 for the single-matrix backends).
	Subdomains int `json:"subdomains,omitempty"`
	// Kernel names the kernel set the solve's fused loops ran through:
	// "unrolled", the one set every solve runs.
	Kernel string `json:"kernel,omitempty"`
	// Interleave reports that the tiles ran on the row-interleaved panel
	// layout.
	Interleave bool `json:"interleave,omitempty"`
	// Tuning is the resolved feedback policy the plan was made under, one
	// of two: "off" or "adapt".
	Tuning string `json:"tuning,omitempty"`
	// Source reports how the plan was chosen: "static" for the planner's
	// structure heuristic (cold problems, tuning off, or a measured
	// confirmation that the static plan wins), "measured" for a candidate
	// promoted on observed throughput, "explore" for an unmeasured
	// candidate promoted by the exploration bonus.
	Source string `json:"plan_source,omitempty"`
	// Candidates is the evidence trail of a tuned decision: every plan the
	// selector considered, with measured rhs/s where the signature has
	// executed before. Empty until the problem crosses the tuner's
	// observation gate.
	Candidates []PlanCandidate `json:"candidates,omitempty"`
}

// PlanCandidate is one plan the self-tuning planner considered, with the
// evidence it was ranked by.
type PlanCandidate struct {
	// Backend, TileWidth, Workers, M, Interleave summarize the candidate
	// plan (TileWidth is the widest tile; tiling is balanced).
	Backend    string `json:"backend"`
	TileWidth  int    `json:"tile_width"`
	Workers    int    `json:"workers"`
	M          int    `json:"m"`
	Interleave bool   `json:"interleave,omitempty"`
	// MeasuredRHSPerSec is the mean realized throughput of Observations
	// executed solves with this plan (0 when unmeasured).
	MeasuredRHSPerSec float64 `json:"measured_rhs_per_second,omitempty"`
	Observations      int     `json:"observations,omitempty"`
	// SecondsPerIteration is the mean execute time per block iteration —
	// the per-iteration cost the m in m-step trades against.
	SecondsPerIteration float64 `json:"seconds_per_iteration,omitempty"`
	// Score is the exploration-adjusted value the selection ranked by.
	Score float64 `json:"score,omitempty"`
	// Chosen marks the candidate the decision picked.
	Chosen bool `json:"chosen,omitempty"`
}

// JobResult reports a finished solve.
type JobResult struct {
	// JobID is the id of the job that produced this result, the key for the
	// trace endpoint (GET /v1/jobs/{id}/trace) after the solve completes.
	JobID         string  `json:"job_id,omitempty"`
	Converged     bool    `json:"converged"`
	Iterations    int     `json:"iterations"`
	MatVecs       int     `json:"matvecs"`
	PrecondApps   int     `json:"precond_apps"`
	InnerProducts int     `json:"inner_products"`
	FinalUDiff    float64 `json:"final_udiff"`
	FinalRelRes   float64 `json:"final_relres"`
	// Precond names the preconditioner, e.g. "3-step ssor-multicolor
	// (least-squares)".
	Precond string `json:"precond"`
	// Backend is the matvec storage the solve ran on ("csr", "dia" or
	// "decomposed") — the resolved form of the request's "backend" field.
	Backend string `json:"backend,omitempty"`
	// Plan is the execution plan the job ran: backend, batch tiles, kernel
	// fan-out, and step count, as the planner resolved them.
	Plan *PlanInfo `json:"plan,omitempty"`
	// IntervalLo/Hi report the spectral interval used for parametrized
	// coefficients (0,0 when none was needed): an estimate, or [1e-9, 1.02]
	// where SSOR least squares fits on the known bound (core.IntervalFor).
	IntervalLo float64 `json:"interval_lo,omitempty"`
	IntervalHi float64 `json:"interval_hi,omitempty"`
	// Alphas reports the m-step polynomial coefficients the preconditioner
	// ran with (nil when M == 0).
	Alphas *poly.Alphas `json:"alphas,omitempty"`
	// CGStats carries the full CG iteration report for single-RHS solves —
	// recurrence coefficients, optional histories — for in-process callers
	// (repro.Solve reconstructs its Result from it). Never serialized; HTTP
	// results carry the flat counters above instead.
	CGStats *cg.Stats `json:"-"`
	// U is the solution in the solver's ordering (multicolor for plates);
	// omitted when the request set OmitSolution.
	U []float64 `json:"u,omitempty"`
	// Nodes, NodeU, NodeV are the per-free-node displacements for plate
	// problems (solution mapped back out of the multicolor ordering).
	Nodes []int     `json:"nodes,omitempty"`
	NodeU []float64 `json:"node_u,omitempty"`
	NodeV []float64 `json:"node_v,omitempty"`

	// RHS is the number of right-hand sides solved; Cases holds the
	// per-RHS outcomes for batched requests (len(Cases) == RHS when > 1).
	// For batches the top-level counters describe the shared block solves:
	// Iterations is the block iteration count summed over the plan's
	// tiles, MatVecs the SpMM count (one per tile iteration), PrecondApps
	// the block sweeps.
	RHS   int          `json:"rhs,omitempty"`
	Cases []CaseResult `json:"cases,omitempty"`
}

// CaseResult reports one right-hand side of a batched solve.
type CaseResult struct {
	Converged   bool    `json:"converged"`
	Iterations  int     `json:"iterations"`
	FinalUDiff  float64 `json:"final_udiff"`
	FinalRelRes float64 `json:"final_relres"`
	// Error reports a per-case failure (breakdown or iteration limit);
	// empty for converged cases.
	Error string `json:"error,omitempty"`
	// U is the case's solution in the solver's ordering; omitted when the
	// request set OmitSolution.
	U []float64 `json:"u,omitempty"`
	// Nodes, NodeU, NodeV are the per-free-node displacements for plate
	// problems.
	Nodes []int     `json:"nodes,omitempty"`
	NodeU []float64 `json:"node_u,omitempty"`
	NodeV []float64 `json:"node_v,omitempty"`
	// CGStats carries the case's full CG iteration report for in-process
	// callers (repro.SolveBatch reconstructs its Results from it). Never
	// serialized.
	CGStats *cg.Stats `json:"-"`
}

// CaseEvent is one streamed per-case completion: case Case converged (or
// failed) while the rest of the job was still running. The terminal event
// of a stream instead carries the finished job in Done (with Case = -1);
// exactly one Done event ends every stream.
type CaseEvent struct {
	// Seq is the event's position in the job's delivery order, starting at
	// 1 and strictly increasing. It is the SSE event ID: a client that
	// reattaches with Last-Event-ID = Seq skips everything already
	// delivered. 0 on the terminal Done event.
	Seq    int         `json:"seq,omitempty"`
	Case   int         `json:"case"`
	Result *CaseResult `json:"result,omitempty"`
	Done   *JobView    `json:"done,omitempty"`
}

// Job is the engine’s record of one solve. The lifecycle fields are
// guarded by the owning Engine’s mutex; the streaming state (per-case
// table, subscribers) is guarded by the job's own mutex, because case
// completions arrive from the solve's hot loop and must not contend with
// every other job's bookkeeping.
type Job struct {
	id   string
	req  Request
	done chan struct{}
	// entry is the built cache entry a by-reference request resolved at
	// submission. Holding it keeps the job's matrix alive even if the cache
	// evicts the entry while the job waits in the queue. Every other job
	// leaves it nil and resolves its entry when it runs: the cached one for
	// a keyed request, a throwaway one for a keyless request.
	entry *cacheEntry

	// ctx is canceled to abort the solve (client disconnect on a
	// synchronous request, Engine.Cancel, or engine shutdown); the solve
	// loop polls it at iteration boundaries.
	ctx    context.Context
	cancel context.CancelFunc

	state      JobState
	cacheHit   bool
	result     *JobResult
	err        error
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time

	// trace, conv and queueSpan are the job's observability record: the
	// stage timeline, the per-iteration convergence sampler the solve's
	// Observer feeds, and the open "queue" span the dequeuing worker closes.
	// All three are created by Submit before the job becomes visible, so
	// they are safe to read without a lock for the job's whole life.
	trace     *obs.Trace
	conv      *obs.ConvergenceLog
	queueSpan *obs.Span

	// Streaming state.
	smu      sync.Mutex
	cases    []CaseResult // per-case results, filled as columns converge
	caseDone []bool
	caseSeq  []int // per-case delivery order (1-based), for SSE event IDs
	nDone    int
	subs     map[int]chan CaseEvent
	nextSub  int
	closed   bool // all case events delivered; subscriber channels closed
}

// JobView is an immutable snapshot of a job, shaped for JSON.
type JobView struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	CacheHit bool     `json:"cache_hit"`
	// CasesDone/CasesTotal report streaming progress: how many of the
	// job's right-hand sides have individually finished (0/0 until the
	// solve starts).
	CasesDone  int `json:"cases_done,omitempty"`
	CasesTotal int `json:"cases_total,omitempty"`
	// QueuedSeconds is enqueue→start (or →now while queued); RunSeconds is
	// start→finish (or →now while running).
	QueuedSeconds float64    `json:"queued_seconds"`
	RunSeconds    float64    `json:"run_seconds"`
	Error         string     `json:"error,omitempty"`
	Result        *JobResult `json:"result,omitempty"`
}

// view snapshots the job; the caller must hold the engine mutex.
func (j *Job) view(now time.Time) JobView {
	v := JobView{ID: j.id, State: j.state, CacheHit: j.cacheHit, Result: j.result}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	switch j.state {
	case JobQueued:
		v.QueuedSeconds = now.Sub(j.enqueuedAt).Seconds()
	case JobRunning:
		v.QueuedSeconds = j.startedAt.Sub(j.enqueuedAt).Seconds()
		v.RunSeconds = now.Sub(j.startedAt).Seconds()
	default:
		v.QueuedSeconds = j.startedAt.Sub(j.enqueuedAt).Seconds()
		v.RunSeconds = j.finishedAt.Sub(j.startedAt).Seconds()
	}
	j.smu.Lock()
	v.CasesDone, v.CasesTotal = j.nDone, len(j.cases)
	j.smu.Unlock()
	return v
}

// Done reports completion: the channel closes when the job reaches JobDone
// or JobFailed.
func (j *Job) Done() <-chan struct{} { return j.done }

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Err returns the job's failure cause (the original error value, so callers
// can unwrap per-column joins and context errors). Only valid after Done is
// closed: the fields are published before the channel close.
func (j *Job) Err() error { return j.err }

// Result returns the finished job's result (possibly partial on failure,
// nil when the job failed before executing). Only valid after Done is
// closed.
func (j *Job) Result() *JobResult { return j.result }

// Cancel aborts the job: queued jobs are skipped when dequeued, running
// solves stop at the next iteration boundary (reported as failed with the
// context's error). Canceling a finished job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// initCases sizes the per-case state table before execution starts.
func (j *Job) initCases(rhs int) {
	j.smu.Lock()
	j.cases = make([]CaseResult, rhs)
	j.caseDone = make([]bool, rhs)
	j.caseSeq = make([]int, rhs)
	j.smu.Unlock()
}

// caseFinished records case idx's final result and publishes it to every
// subscriber. Called from the solve loop (via the deflation hook), so it
// must not block: subscriber channels are buffered to hold the job's full
// case count, and anything beyond that (impossible by construction) is
// dropped rather than stalling the solver.
func (j *Job) caseFinished(idx int, cr CaseResult) {
	j.smu.Lock()
	defer j.smu.Unlock()
	if j.caseDone[idx] {
		return
	}
	j.caseDone[idx] = true
	j.cases[idx] = cr
	j.nDone++
	j.caseSeq[idx] = j.nDone
	ev := CaseEvent{Seq: j.nDone, Case: idx, Result: &j.cases[idx]}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// snapshotCases copies the per-case table into a result (after every tile
// has executed).
func (j *Job) snapshotCases() []CaseResult {
	j.smu.Lock()
	defer j.smu.Unlock()
	out := make([]CaseResult, len(j.cases))
	copy(out, j.cases)
	return out
}

// subscribe registers a streaming consumer: it returns the already-finished
// cases as replay events plus a channel carrying every later completion.
// The channel is closed once the job finishes and all events are delivered;
// a subscriber joining after that gets the full replay and an
// already-closed channel. Replay is ordered by delivery sequence (the order
// the cases originally finished in), so a whole stream — replay then live —
// carries strictly increasing Seq values.
func (j *Job) subscribe() (replay []CaseEvent, ch <-chan CaseEvent, id int) {
	j.smu.Lock()
	defer j.smu.Unlock()
	for idx := range j.cases {
		if j.caseDone[idx] {
			replay = append(replay, CaseEvent{Seq: j.caseSeq[idx], Case: idx, Result: &j.cases[idx]})
		}
	}
	sort.Slice(replay, func(a, b int) bool { return replay[a].Seq < replay[b].Seq })
	// Buffered to the largest number of events that can still arrive, so
	// the solver-side publish never blocks. Before the solve starts the
	// case table is empty, so size by the request's batch width instead.
	c := make(chan CaseEvent, max(j.req.batchSize(), len(j.cases))-len(replay)+1)
	if j.closed {
		close(c)
		return replay, c, -1
	}
	if j.subs == nil {
		j.subs = make(map[int]chan CaseEvent)
	}
	id = j.nextSub
	j.nextSub++
	j.subs[id] = c
	return replay, c, id
}

// unsubscribe drops a subscriber (no-op after closeStreams).
func (j *Job) unsubscribe(id int) {
	j.smu.Lock()
	defer j.smu.Unlock()
	if ch, ok := j.subs[id]; ok {
		delete(j.subs, id)
		close(ch)
	}
}

// closeStreams ends every subscription; stream handlers then emit their
// terminal event from the finished job view. Called exactly once, at job
// completion.
func (j *Job) closeStreams() {
	j.smu.Lock()
	defer j.smu.Unlock()
	j.closed = true
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
}
