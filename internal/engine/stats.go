package engine

import (
	"math"
	"sort"
	"sync"
)

// latencyWindow is how many of the most recent job latencies the p50/p99
// in Stats are taken over.
const latencyWindow = 1024

// latencyRing keeps the most recent solve latencies for on-demand quantile
// estimation: it appends until it holds latencyWindow samples, then
// overwrites the oldest, and sorts only when Stats is asked. The zero value
// is ready to use.
type latencyRing struct {
	mu   sync.Mutex
	buf  []float64
	next int // the oldest sample, once buf is full
}

func (r *latencyRing) add(v float64) {
	r.mu.Lock()
	if len(r.buf) < latencyWindow {
		r.buf = append(r.buf, v)
	} else {
		r.buf[r.next] = v
		r.next = (r.next + 1) % latencyWindow
	}
	r.mu.Unlock()
}

// sorted returns a sorted copy of the retained window, so one snapshot
// serves every quantile a caller reads.
func (r *latencyRing) sorted() []float64 {
	r.mu.Lock()
	sample := append([]float64(nil), r.buf...)
	r.mu.Unlock()
	sort.Float64s(sample)
	return sample
}

// quantile returns the q-th (0..1) value of an ascending sample, 0 when
// empty, using the ceil-based nearest-rank definition: the smallest sample
// at or above rank ⌈q·n⌉. Truncating the rank instead (int(q·(n−1)))
// under-reports tail quantiles on small windows — p99 of 50 samples would
// read index 48, which is the p96.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

// Stats is the /v1/stats payload: scheduler, cache, and latency health.
type Stats struct {
	Workers      int `json:"workers"`
	WorkerBudget int `json:"worker_budget"`
	QueueDepth   int `json:"queue_depth"`
	QueueCap     int `json:"queue_cap"`
	Running      int `json:"running"`

	JobsDone   int64 `json:"jobs_done"`
	JobsFailed int64 `json:"jobs_failed"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheEntries int     `json:"cache_entries"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	TotalIterations int64 `json:"total_iterations"`

	// SolvesCSR/SolvesDIA/SolvesDecomposed count solves by the matvec
	// backend they actually ran on (a batched job counts once): the
	// operational view of the automatic backend selection.
	SolvesCSR        int64 `json:"solves_csr"`
	SolvesDIA        int64 `json:"solves_dia"`
	SolvesDecomposed int64 `json:"solves_decomposed"`

	// TilesExecuted counts executed plan tiles (a scalar solve is one
	// tile; a batched job contributes one per planned column tile) — the
	// operational view of the batch-tiling policy.
	TilesExecuted int64 `json:"tiles_executed"`
	// PlanFeedback counts executed plans whose realized throughput was
	// folded back into the self-tuning planner's observation store.
	PlanFeedback int64 `json:"plan_feedback_total"`
	// StreamSubscribers is the current number of per-case result streams
	// (SSE or ?watch=1) attached to jobs.
	StreamSubscribers int64 `json:"stream_subscribers"`
	// ByRefSolves counts jobs accepted with a by-reference system (a keyed
	// system sent without triplets, resolved from the cache).
	ByRefSolves int64 `json:"by_ref_solves"`
	// ByRefMisses counts by-reference solve and plan requests refused with
	// ErrNotCached (HTTP 409). A rising rate means clients are resending
	// matrices: entries are being evicted or keys re-sharded.
	ByRefMisses int64 `json:"by_ref_misses"`

	// LatencyP50/P99 are job latencies (enqueue→finish) in seconds over
	// the last 1024 finished jobs. Split by resolved backend, latencies are
	// the repro_job_duration_seconds{backend} histogram on /metrics.
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`

	UptimeSeconds float64 `json:"uptime_seconds"`
}
