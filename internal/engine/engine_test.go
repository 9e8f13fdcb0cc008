package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fem"
)

func plateReq(rows, cols, m int) Request {
	return Request{
		Plate:  &PlateSpec{Rows: rows, Cols: cols},
		Solver: SolverSpec{M: m, Coeffs: "least-squares", Tol: 1e-7},
	}
}

// laplace1D builds the general-system request for the n-point 1-D
// Laplacian with a unit load at the middle.
func laplace1D(n int, key string) Request {
	var i, j []int
	var v []float64
	add := func(a, b int, x float64) { i = append(i, a); j = append(j, b); v = append(v, x) }
	for k := 0; k < n; k++ {
		add(k, k, 2)
		if k > 0 {
			add(k, k-1, -1)
			add(k-1, k, -1)
		}
	}
	f := make([]float64, n)
	f[n/2] = 1
	return Request{
		System: &SystemSpec{N: n, I: i, J: j, V: v, F: f, Key: key},
		Solver: SolverSpec{M: 2, Splitting: "jacobi", RelResidualTol: 1e-10},
	}
}

func TestEnginePlateSolveMatchesLibrary(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	v, err := s.Solve(context.Background(), plateReq(10, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if v.State != JobDone || v.Result == nil || !v.Result.Converged {
		t.Fatalf("job not done/converged: %+v", v)
	}

	sys, _, err := core.PlateSystem(10, 10, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Solve(sys, core.Config{M: 3, Coeffs: core.LeastSquaresCoeffs, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Result.U) != len(want.U) {
		t.Fatalf("solution length %d != %d", len(v.Result.U), len(want.U))
	}
	for i := range want.U {
		if math.Abs(v.Result.U[i]-want.U[i]) > 1e-9 {
			t.Fatalf("solution deviates at %d: %g vs %g", i, v.Result.U[i], want.U[i])
		}
	}
	if len(v.Result.Nodes) == 0 || len(v.Result.NodeU) != len(v.Result.Nodes) {
		t.Fatalf("plate result missing node displacements: %+v", v.Result)
	}
}

func TestEngineCacheReuse(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	first, err := s.Solve(context.Background(), plateReq(12, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	second, err := s.Solve(context.Background(), plateReq(12, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second identical solve did not hit the cache")
	}
	if second.Result.Iterations != first.Result.Iterations {
		t.Fatalf("cached solve took %d iterations vs %d — interval reuse changed the method",
			second.Result.Iterations, first.Result.Iterations)
	}
	if second.Result.IntervalLo != first.Result.IntervalLo || second.Result.IntervalHi != first.Result.IntervalHi {
		t.Fatal("cached solve re-estimated the spectral interval")
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.CacheEntries)
	}

	// A different problem must not hit.
	third, err := s.Solve(context.Background(), plateReq(10, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("different plate reported a cache hit")
	}
}

func TestEngineGeneralSystemAndKeyedCache(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	// Unkeyed: solves through a throwaway entry the cache never holds, so
	// it counts no entry, hit or miss.
	unkeyed := laplace1D(50, "")
	v, err := s.Solve(context.Background(), unkeyed)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != JobDone || !v.Result.Converged {
		t.Fatalf("general solve failed: %+v", v)
	}
	if st := s.Stats(); st.CacheEntries != 0 || st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Fatalf("unkeyed system touched the cache: entries %d, hits %d, misses %d", st.CacheEntries, st.CacheHits, st.CacheMisses)
	}
	// Its trace opens like a cold keyed job's: cache_wait (a miss that
	// built), then assembly and the build stages.
	ti, ok := s.Trace(v.ID)
	if !ok {
		t.Fatalf("no trace for %s", v.ID)
	}
	want := []string{"queue", "cache_wait", "assemble", "splitting_build", "precond_build", "plan"}
	if got := stageNames(ti); len(got) < len(want) || !reflect.DeepEqual(got[:len(want)], want) {
		t.Fatalf("unkeyed trace stages %v, want them to open with %v", got, want)
	}
	if wait := ti.Spans[1]; wait.Attrs["hit"] != false || wait.Attrs["built"] != true {
		t.Fatalf("unkeyed cache_wait attrs: %v", wait.Attrs)
	}
	// Planning the same request offline reports the plan the job ran.
	info, err := s.PlanRequest(unkeyed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(info, *v.Result.Plan) {
		t.Fatalf("offline plan %+v != executed %+v", info, *v.Result.Plan)
	}

	// Keyed: second submission reuses the assembled matrix.
	if _, err := s.Solve(context.Background(), laplace1D(50, "lap50")); err != nil {
		t.Fatal(err)
	}
	hit, err := s.Solve(context.Background(), laplace1D(50, "lap50"))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("keyed resubmission missed the cache")
	}
}

func TestEngineConcurrentSolves(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 1024})
	defer s.Close()

	const jobs = 32
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	views := make([]JobView, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Mix of identical (cacheable) and distinct problems.
			var req Request
			switch i % 3 {
			case 0:
				req = plateReq(10, 10, 2)
			case 1:
				req = plateReq(8, 12, 2)
			default:
				req = laplace1D(200, "lap200")
			}
			views[i], errs[i] = s.Solve(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if views[i].State != JobDone || !views[i].Result.Converged {
			t.Fatalf("job %d not converged: %+v", i, views[i])
		}
	}
	st := s.Stats()
	if st.JobsDone != jobs {
		t.Fatalf("jobs done = %d, want %d", st.JobsDone, jobs)
	}
	if st.CacheMisses != 3 {
		t.Fatalf("cache misses = %d, want 3 (one per distinct problem)", st.CacheMisses)
	}
	if st.CacheHits != jobs-3 {
		t.Fatalf("cache hits = %d, want %d", st.CacheHits, jobs-3)
	}
}

// slowReq is a solve that reliably occupies a worker for hundreds of
// milliseconds — much longer than a request roundtrip even on one CPU — so
// queue-bound tests observe a busy worker: a tight residual target on a
// larger plate with plain CG.
func slowReq() Request {
	return Request{
		Plate:  &PlateSpec{Rows: 48, Cols: 48},
		Solver: SolverSpec{M: 0, RelResidualTol: 1e-13, MaxIter: 30000},
	}
}

func TestEngineQueueBounds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer s.Close()

	// Occupy the worker, then fill the 1-deep queue.
	if _, err := s.Submit(slowReq()); err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	for i := 0; i < 50 && !sawFull; i++ {
		_, err := s.Submit(slowReq())
		if err != nil && err != ErrQueueFull {
			t.Fatal(err)
		}
		sawFull = err == ErrQueueFull
	}
	if !sawFull {
		t.Fatal("bounded queue never rejected")
	}
}

func TestEngineValidationAndFailures(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	bad := []Request{
		{},                                    // neither plate nor system
		{Plate: &PlateSpec{Rows: 1, Cols: 5}}, // degenerate plate
		{Plate: &PlateSpec{Rows: 4, Cols: 4}, System: &SystemSpec{N: 2}},                                 // both
		{Plate: &PlateSpec{Rows: 4, Cols: 4}, Solver: SolverSpec{Splitting: "cholesky"}},                 // unknown splitting
		{Plate: &PlateSpec{Rows: 4, Cols: 4}, Solver: SolverSpec{M: 2, Coeffs: "quadrature"}},            // unknown coeffs
		{System: &SystemSpec{N: 3, I: []int{0}, J: []int{0, 1}, V: []float64{1}, F: make([]float64, 3)}}, // ragged triplets
		{System: &SystemSpec{N: 2, I: []int{5}, J: []int{0}, V: []float64{1}, F: make([]float64, 2)}},    // out of range
	}
	for i, req := range bad {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("bad request %d accepted", i)
		}
	}

	// Resource caps and material validity are enforced at submission, so a
	// tiny request cannot commission a huge allocation or a doomed job.
	capped := []Request{
		{Plate: &PlateSpec{Rows: 30000, Cols: 30000}},
		{Plate: &PlateSpec{Rows: 4, Cols: 4, E: -1}},               // invalid material
		{Plate: &PlateSpec{Rows: 4, Cols: 4, E: 1, T: 1, Nu: 0.5}}, // ν at limit
		{System: &SystemSpec{N: 1 << 30}},
		{Plate: &PlateSpec{Rows: 4, Cols: 4}, Solver: SolverSpec{M: 1 << 20}},
	}
	for i, req := range capped {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("oversized/invalid request %d accepted", i)
		}
	}

	// Asymmetric system passes Validate but fails at assembly → JobFailed,
	// and the failed build must not poison the cache.
	asym := Request{
		System: &SystemSpec{
			N: 2, I: []int{0, 0, 1}, J: []int{0, 1, 1}, V: []float64{1, 0.5, 1},
			F: []float64{1, 1}, Key: "asym",
		},
		Solver: SolverSpec{Splitting: "jacobi", Tol: 1e-8},
	}
	v, err := s.Solve(context.Background(), asym)
	if err == nil {
		t.Fatal("failed job returned a nil error from Solve")
	}
	if v.State != JobFailed || v.Error == "" {
		t.Fatalf("asymmetric system did not fail: %+v", v)
	}
	if s.Stats().CacheEntries != 0 {
		t.Fatal("failed build left a cache entry")
	}

	// Out-of-range omega is rejected up front, at submission.
	badOmega := plateReq(6, 6, 2)
	badOmega.Solver.Omega = 2.5
	if _, err := s.Submit(badOmega); err == nil {
		t.Fatal("ω = 2.5 accepted at submission")
	}
}

func TestEngineClose(t *testing.T) {
	s := New(Config{Workers: 2})
	jobs := make([]*Job, 0, 8)
	for i := 0; i < 8; i++ {
		j, err := s.Submit(plateReq(8, 8, 1))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Close() // must drain the queue
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatal("Close returned with unfinished jobs")
		}
	}
	if _, err := s.Submit(plateReq(8, 8, 1)); err != ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestEngineOmitSolution(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := plateReq(8, 8, 2)
	req.OmitSolution = true
	v, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result.U != nil || v.Result.NodeU != nil {
		t.Fatal("omit_solution still returned vectors")
	}
	if !v.Result.Converged || v.Result.Iterations == 0 {
		t.Fatalf("stats missing: %+v", v.Result)
	}
}

func TestEngineJobLookup(t *testing.T) {
	s := New(Config{Workers: 1, HistoryLimit: 2})
	defer s.Close()
	var last string
	for i := 0; i < 5; i++ {
		v, err := s.Solve(context.Background(), plateReq(6, 6, 1))
		if err != nil {
			t.Fatal(err)
		}
		last = v.ID
	}
	if _, ok := s.Job(last); !ok {
		t.Fatal("most recent job evicted")
	}
	if _, ok := s.Job("j-000001"); ok {
		t.Fatal("history limit not enforced")
	}
	if _, ok := s.Job("nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestEngineWorkerBudgetDefaults(t *testing.T) {
	for _, tc := range []struct{ workers, budget, wantBudgetMin int }{
		{1, 0, 1},
		{4, 0, 1},
		{2, 3, 3},
	} {
		cfg := Config{Workers: tc.workers, WorkerBudget: tc.budget}.withDefaults()
		if cfg.WorkerBudget < tc.wantBudgetMin {
			t.Fatalf("workers=%d budget=%d → %d", tc.workers, tc.budget, cfg.WorkerBudget)
		}
		if tc.budget == 0 && cfg.Workers*cfg.WorkerBudget > 2*max(cfg.Workers, maxprocs()) {
			t.Fatalf("default budget oversubscribes: %d×%d", cfg.Workers, cfg.WorkerBudget)
		}
	}
}

func maxprocs() int {
	cfg := Config{}.withDefaults()
	return cfg.Workers
}

// sameShardKeys returns n distinct keys that all hash to one cache shard,
// so a test can exercise eviction order inside a single LRU.
func sameShardKeys(t *testing.T, c *cache, n int) []string {
	t.Helper()
	want := c.shard("seed")
	keys := []string{"seed"}
	for i := 0; len(keys) < n && i < 10000; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(k) == want {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("could not find %d colliding keys", n)
	}
	return keys
}

func TestCacheLRUEvictionSmall(t *testing.T) {
	// A capacity below minShardCapacity degenerates to one shard, so a
	// small cache keeps the exact single-LRU semantics it had before
	// sharding.
	c := newCache(2)
	if len(c.shards) != 1 {
		t.Fatalf("cache of 2 uses %d shards, want 1", len(c.shards))
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, existed := c.get(k); existed {
			t.Fatalf("fresh key %s existed", k)
		}
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, existed := c.get("a"); existed {
		t.Fatal("evicted key a still present")
	}
	// "c" was most recent before the re-miss on "a"; "b" must be gone.
	if _, existed := c.get("c"); !existed {
		t.Fatal("key c evicted out of LRU order")
	}
}

func TestCacheShardBorrowsGlobalCapacity(t *testing.T) {
	// Capacity is a global bound, not per shard: a hot shard may hold far
	// more than its even share as long as the cache total fits, and
	// eviction starts only once the whole cache is over capacity.
	c := newCache(8) // 2 shards
	if len(c.shards) != 2 {
		t.Fatalf("cache of 8 uses %d shards, want 2", len(c.shards))
	}
	keys := sameShardKeys(t, c, 9)
	for _, k := range keys[:8] {
		if _, existed := c.get(k); existed {
			t.Fatalf("fresh key %s existed", k)
		}
	}
	// All 8 colliding keys fit (4× the shard's even share), none evicted.
	for _, k := range keys[:8] {
		if _, existed := c.get(k); !existed {
			t.Fatalf("key %s evicted below global capacity", k)
		}
	}
	// The 9th pushes the cache over capacity: its shard's LRU tail goes.
	if _, existed := c.get(keys[8]); existed {
		t.Fatalf("fresh key %s existed", keys[8])
	}
	if c.len() != 8 {
		t.Fatalf("len = %d, want 8", c.len())
	}
	if _, existed := c.get(keys[0]); existed {
		t.Fatalf("oldest key %s survived past global capacity", keys[0])
	}
	// keys[2:] stay resident: the re-miss on keys[0] evicted keys[1].
	for _, k := range keys[2:] {
		if _, existed := c.get(k); !existed {
			t.Fatalf("key %s evicted out of LRU order", k)
		}
	}
}

func TestCacheShardingAggregateStats(t *testing.T) {
	const keys = 40
	// Capacity sized so no shard can overflow even if every key collided.
	c := newCache(cacheShards * keys)
	for i := 0; i < keys; i++ {
		if _, existed := c.get(fmt.Sprintf("key-%d", i)); existed {
			t.Fatalf("fresh key %d existed", i)
		}
	}
	for i := 0; i < keys; i++ {
		if _, existed := c.get(fmt.Sprintf("key-%d", i)); !existed {
			t.Fatalf("key %d missing on second pass (capacity 64 should hold 40)", i)
		}
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != keys || m != keys {
		t.Fatalf("hits/misses = %d/%d, want %d/%d", h, m, keys, keys)
	}
	if c.len() != keys {
		t.Fatalf("len = %d, want %d", c.len(), keys)
	}
	if rate := float64(c.hits.Load()) / float64(c.hits.Load()+c.misses.Load()); rate != 0.5 {
		t.Fatalf("aggregate hit rate = %g, want 0.5", rate)
	}
	// Entries must be spread over more than one shard, or the sharding is
	// not actually splitting the lock.
	shards := map[*cacheShard]bool{}
	for i := 0; i < keys; i++ {
		shards[c.shard(fmt.Sprintf("key-%d", i))] = true
	}
	if len(shards) < 2 {
		t.Fatalf("all %d keys landed in one shard", keys)
	}
}

func TestStatsLatencyQuantiles(t *testing.T) {
	r := newLatencyRing(100)
	for i := 1; i <= 100; i++ {
		r.add(float64(i))
	}
	if p50 := r.quantile(0.50); math.Abs(p50-50) > 2 {
		t.Fatalf("p50 = %g", p50)
	}
	if p99 := r.quantile(0.99); math.Abs(p99-99) > 2 {
		t.Fatalf("p99 = %g", p99)
	}
	// Overwrite wraps: only the latest window counts.
	for i := 0; i < 100; i++ {
		r.add(1000)
	}
	if p50 := r.quantile(0.5); p50 != 1000 {
		t.Fatalf("post-wrap p50 = %g", p50)
	}
}

func TestCacheKeyDistinguishesSolverSettings(t *testing.T) {
	base := plateReq(10, 10, 3)
	variants := []Request{
		plateReq(10, 10, 4),
		plateReq(10, 11, 3),
		func() Request { r := plateReq(10, 10, 3); r.Solver.Coeffs = "chebyshev"; return r }(),
		func() Request { r := plateReq(10, 10, 3); r.Solver.Omega = 1.2; return r }(),
		func() Request { r := plateReq(10, 10, 3); r.Plate.E = 2; return r }(),
	}
	seen := map[string]bool{base.CacheKey(): true}
	for i, v := range variants {
		k := v.CacheKey()
		if seen[k] {
			t.Fatalf("variant %d collides: %s", i, k)
		}
		seen[k] = true
	}
	// Tolerance is a stopping criterion, not part of the prepared problem:
	// it must NOT split the cache.
	loose := plateReq(10, 10, 3)
	loose.Solver.Tol = 1e-3
	if loose.CacheKey() != base.CacheKey() {
		t.Fatal("tolerance changed the cache key")
	}
	// Keys are canonical: spelling out the defaults lands on the same
	// entry as the empty-string shorthand.
	explicit := plateReq(10, 10, 3)
	explicit.Solver.Splitting = "SSOR-Multicolor"
	explicit.Solver.Coeffs = "Least-Squares"
	explicit.Solver.Omega = 1
	if explicit.CacheKey() != base.CacheKey() {
		t.Fatalf("explicit defaults split the cache: %q vs %q", explicit.CacheKey(), base.CacheKey())
	}
	// Same for the material and traction defaults.
	explicitMat := plateReq(10, 10, 3)
	explicitMat.Plate = &PlateSpec{Rows: 10, Cols: 10, E: 1, Nu: 0.3, T: 1, Traction: 1}
	if explicitMat.CacheKey() != base.CacheKey() {
		t.Fatalf("explicit default material split the cache: %q vs %q", explicitMat.CacheKey(), base.CacheKey())
	}
	if k := (&Request{System: &SystemSpec{N: 2}}).CacheKey(); k != "" {
		t.Fatalf("unkeyed system got cache key %q", k)
	}
}

func TestEngineSolveContextCancel(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(ctx, plateReq(20, 20, 0)); err != context.Canceled {
		t.Fatalf("cancelled solve returned %v", err)
	}
}

func ExampleEngine() {
	s := New(Config{Workers: 2})
	defer s.Close()
	v, err := s.Solve(context.Background(), Request{
		Plate:  &PlateSpec{Rows: 10, Cols: 10},
		Solver: SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-7},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(v.State, v.Result.Converged)
	// Output: done true
}
