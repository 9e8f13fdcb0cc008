package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cg"
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

	// The reference is built outside the engine, from core's
	// preconditioner and cg's scalar solve, so it is independent of the
	// executor under test.
	sys, _, err := core.PlateSystem(10, 10, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pc, _, _, err := core.BuildPreconditioner(sys, core.Config{M: 3, Coeffs: core.LeastSquaresCoeffs})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := cg.Solve(sys.K, sys.F, pc, cg.Options{Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Result.U) != len(want) {
		t.Fatalf("solution length %d != %d", len(v.Result.U), len(want))
	}
	for i := range want {
		if math.Abs(v.Result.U[i]-want[i]) > 1e-9 {
			t.Fatalf("solution deviates at %d: %g vs %g", i, v.Result.U[i], want[i])
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

// TestIndefiniteSystemFailsInSolve: the SSOR bound assumes an SPD K and
// checks nothing at build, so a symmetric indefinite system (spectrum of
// P⁻¹K = {1, −3}) under natural SSOR least squares builds, is cached, and
// fails in the solve with cg's breakdown error. The same system with
// Chebyshev coefficients still runs the spectral estimate, which rejects it
// at build and caches nothing.
func TestIndefiniteSystemFailsInSolve(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	indefinite := func(coeffs, key string) Request {
		return Request{
			System: &SystemSpec{
				N: 2, I: []int{0, 0, 1, 1}, J: []int{0, 1, 0, 1}, V: []float64{1, 2, 2, 1},
				F: []float64{1, 1}, Key: key,
			},
			Solver: SolverSpec{M: 3, Splitting: "ssor-natural", Coeffs: coeffs},
		}
	}
	v, err := s.Solve(context.Background(), indefinite("least-squares", "indef-ls"))
	if err == nil || v.State != JobFailed || !strings.Contains(v.Error, cg.ErrBreakdownMatrix.Error()) {
		t.Fatalf("least squares on the bound: state %s, error %q, want a cg breakdown", v.State, v.Error)
	}
	if s.Stats().CacheEntries != 1 {
		t.Fatalf("bound build cached %d entries, want 1", s.Stats().CacheEntries)
	}
	v, err = s.Solve(context.Background(), indefinite("chebyshev", "indef-cheb"))
	if err == nil || v.State != JobFailed || !strings.Contains(v.Error, "spectral estimate") {
		t.Fatalf("Chebyshev: state %s, error %q, want the estimate's rejection", v.State, v.Error)
	}
	if s.Stats().CacheEntries != 1 {
		t.Fatalf("failed estimate left a cache entry: %d entries", s.Stats().CacheEntries)
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

func TestCacheLRUEvictionSmall(t *testing.T) {
	c := newCache(2)
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

// TestCacheEvictsLeastRecentlyUsed: the cache is one exact LRU. At
// capacity 8, with every key but k3 touched since it was inserted, a ninth
// key evicts k3 and nothing else.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newCache(8)
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	for i := 0; i < 8; i++ {
		if _, existed := c.get(key(i)); existed {
			t.Fatalf("fresh key %s existed", key(i))
		}
	}
	for i := 0; i < 8; i++ {
		if i == 3 {
			continue // leave k3 untouched
		}
		if _, existed := c.get(key(i)); !existed {
			t.Fatalf("key %s evicted below capacity", key(i))
		}
	}
	if _, existed := c.get(key(8)); existed {
		t.Fatalf("fresh key %s existed", key(8))
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 7 || m != 9 {
		t.Fatalf("hits/misses = %d/%d, want 7/9", h, m)
	}
	if c.len() != 8 {
		t.Fatalf("len = %d, want 8", c.len())
	}
	// Every survivor is still there (hits, so nothing more is evicted)...
	for i := 0; i <= 8; i++ {
		if i == 3 {
			continue
		}
		if _, existed := c.get(key(i)); !existed {
			t.Fatalf("key %s evicted; only k3 was least recently used", key(i))
		}
	}
	// ...and k3 is not.
	if _, existed := c.get(key(3)); existed {
		t.Fatal("least recently used key k3 survived the insert past capacity")
	}
}

func TestStatsLatencyQuantiles(t *testing.T) {
	var r latencyRing
	for i := 1; i <= 100; i++ {
		r.add(float64(i))
	}
	if p50 := quantile(r.sorted(), 0.50); math.Abs(p50-50) > 2 {
		t.Fatalf("p50 = %g", p50)
	}
	if p99 := quantile(r.sorted(), 0.99); math.Abs(p99-99) > 2 {
		t.Fatalf("p99 = %g", p99)
	}
	// Overwrite wraps: only the latest window counts, and the ring never
	// holds more than it.
	for i := 0; i < latencyWindow; i++ {
		r.add(1000)
	}
	if lo := quantile(r.sorted(), 0); lo != 1000 {
		t.Fatalf("post-wrap minimum = %g, want every older sample overwritten", lo)
	}
	if len(r.buf) != latencyWindow {
		t.Fatalf("ring holds %d samples, window %d", len(r.buf), latencyWindow)
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

// TestSolveCancelsAbandonedJob: a Solve whose context ends first cancels
// its job, which nobody else could: the caller never learned its ID.
func TestSolveCancelsAbandonedJob(t *testing.T) {
	s := New(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(ctx, laplace1D(2000, "")); err != context.Canceled {
		t.Fatalf("cancelled solve returned %v", err)
	}
	s.Close()
	if st := s.Stats(); st.JobsFailed != 1 || st.JobsDone != 0 {
		t.Fatalf("after Close: %d jobs done, %d failed; want the abandoned job failed", st.JobsDone, st.JobsFailed)
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
