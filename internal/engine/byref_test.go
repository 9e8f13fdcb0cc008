package engine

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// byRef returns req with its system named by reference: the same key, size,
// right-hand sides and solver settings, no triplets.
func byRef(req Request) Request {
	sy := *req.System
	sy.I, sy.J, sy.V = nil, nil, nil
	req.System = &sy
	return req
}

// sameSolve fails unless two results of one system are bitwise equal.
func sameSolve(t *testing.T, got, want *JobResult) {
	t.Helper()
	if got.Iterations != want.Iterations || got.FinalRelRes != want.FinalRelRes {
		t.Fatalf("iterations %d relres %v, want %d %v", got.Iterations, got.FinalRelRes, want.Iterations, want.FinalRelRes)
	}
	if len(got.U) != len(want.U) {
		t.Fatalf("solution length %d, want %d", len(got.U), len(want.U))
	}
	for i := range want.U {
		if math.Float64bits(got.U[i]) != math.Float64bits(want.U[i]) {
			t.Fatalf("u[%d] = %v, want %v", i, got.U[i], want.U[i])
		}
	}
}

func TestByReferenceSolveMatchesFullBody(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	full := laplace1D(30, "lap30")

	first, err := s.Solve(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	fullPlan, err := s.PlanRequest(full)
	if err != nil {
		t.Fatal(err)
	}
	refPlan, err := s.PlanRequest(byRef(full))
	if err != nil {
		t.Fatalf("by-reference plan of a cached key: %v", err)
	}
	if fullPlan.Backend != refPlan.Backend || fullPlan.M != refPlan.M || len(fullPlan.Tiles) != len(refPlan.Tiles) {
		t.Fatalf("by-reference plan %+v differs from full-body plan %+v", refPlan, fullPlan)
	}
	second, err := s.Solve(ctx, byRef(full))
	if err != nil {
		t.Fatalf("by-reference solve of a cached key: %v", err)
	}
	if !second.CacheHit {
		t.Fatal("by-reference solve not reported as a cache hit")
	}
	sameSolve(t, second.Result, first.Result)

	st := s.Stats()
	if st.ByRefSolves != 1 || st.ByRefMisses != 0 {
		t.Fatalf("by-reference counters %d solves / %d misses, want 1 / 0", st.ByRefSolves, st.ByRefMisses)
	}
	// One build; the by-reference solve is a hit, its plan neither.
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("cache hits/misses %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

// TestByReferenceMissPaths: every way a node can lack a key's built entry
// answers ErrNotCached, at solve and at plan, and never creates an entry.
func TestByReferenceMissPaths(t *testing.T) {
	ctx := context.Background()
	asym := Request{
		System: &SystemSpec{
			N: 2, I: []int{0, 0, 1}, J: []int{0, 1, 1}, V: []float64{1, 0.5, 1},
			F: []float64{1, 1}, Key: "asym",
		},
		Solver: SolverSpec{Splitting: "jacobi", Tol: 1e-8},
	}
	otherM := byRef(laplace1D(20, "k"))
	otherM.Solver.M = 0
	cases := []struct {
		name  string
		cfg   Config
		setup []Request // full-body solves run first (errors ignored)
		ref   Request
	}{
		{"cold node", Config{}, nil, byRef(laplace1D(20, "k"))},
		{"evicted entry", Config{CacheSize: 1}, []Request{laplace1D(20, "a"), laplace1D(20, "b")}, byRef(laplace1D(20, "a"))},
		{"unseen solver config", Config{}, []Request{laplace1D(20, "k")}, otherM},
		{"failed build", Config{}, []Request{asym}, byRef(asym)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers = 1
			s := New(tc.cfg)
			defer s.Close()
			for _, req := range tc.setup {
				s.Solve(ctx, req) //nolint:errcheck // the failed build is the point of one case
			}
			entries := s.Stats().CacheEntries
			if _, err := s.Submit(tc.ref); !errors.Is(err, ErrNotCached) {
				t.Fatalf("solve: err %v, want ErrNotCached", err)
			}
			if _, err := s.PlanRequest(tc.ref); !errors.Is(err, ErrNotCached) {
				t.Fatalf("plan: err %v, want ErrNotCached", err)
			}
			st := s.Stats()
			if st.ByRefMisses != 2 || st.ByRefSolves != 0 {
				t.Fatalf("by-reference counters %d solves / %d misses, want 0 / 2", st.ByRefSolves, st.ByRefMisses)
			}
			if st.CacheEntries != entries {
				t.Fatalf("a by-reference miss changed the cache: %d entries, was %d", st.CacheEntries, entries)
			}
		})
	}
}

// TestByReferenceNeverPoisonsKey is the regression for a keyed system sent
// without triplets: it used to build and cache an all-zero matrix under
// its key, failing it and every later correct request for that key.
func TestByReferenceNeverPoisonsKey(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()

	var empty Request
	if err := json.Unmarshal([]byte(`{"system":{"n":2,"key":"k","f":[1,1]}}`), &empty); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(ctx, empty); !errors.Is(err, ErrNotCached) {
		t.Fatalf("keyed system without triplets: err %v, want ErrNotCached", err)
	}
	diag := Request{
		System: &SystemSpec{N: 2, I: []int{0, 1}, J: []int{0, 1}, V: []float64{2, 3}, F: []float64{1, 1}, Key: "k"},
		Solver: SolverSpec{RelResidualTol: 1e-12},
	}
	v, err := s.Solve(ctx, diag)
	if err != nil {
		t.Fatalf("correct request for the key after a by-reference miss: %v", err)
	}
	if u := v.Result.U; math.Abs(u[0]-0.5) > 1e-12 || math.Abs(u[1]-1.0/3) > 1e-12 {
		t.Fatalf("u = %v, want [0.5 0.333…]", u)
	}
}

func TestKeylessSystemNeedsTriplets(t *testing.T) {
	var req Request
	if err := json.Unmarshal([]byte(`{"system":{"n":2,"f":[1,1]}}`), &req); err != nil {
		t.Fatal(err)
	}
	err := req.Validate()
	if err == nil || !strings.Contains(err.Error(), "system.i/j/v") {
		t.Fatalf("keyless system without triplets: err %v, want one naming system.i/j/v", err)
	}
}

// TestByReferenceRacesFirstBuild: by-reference requests sent again and
// again while the first full-body request of their key is queued, building
// and solving either miss or get the right answer; none builds the entry
// from its empty triplets (which would also fail the full-body request).
func TestByReferenceRacesFirstBuild(t *testing.T) {
	ctx := context.Background()
	misses, hits := 0, 0
	for round := 0; round < 10; round++ {
		// Tuning off on every request: under the default adapt policy a
		// round with five or more by-reference solves re-plans later ones
		// to another m, so their iterates no longer match the full-body
		// solve bit for bit. This test is about build races, not plans.
		s := New(Config{Workers: 2})
		full := laplace1D(200, "race")
		full.Solver.Tuning = "off"
		done := make(chan struct{})
		var fullView JobView
		var fullErr error
		go func() { defer close(done); fullView, fullErr = s.Solve(ctx, full) }()
		var refs []JobView
		for finished := false; !finished; {
			select {
			case <-done:
				finished = true // one more request, after the build
			default:
			}
			v, err := s.Solve(ctx, byRef(full))
			switch {
			case errors.Is(err, ErrNotCached):
				misses++
			case err != nil:
				t.Fatalf("round %d: by-reference request: %v", round, err)
			default:
				refs = append(refs, v)
			}
		}
		s.Close()
		if fullErr != nil {
			t.Fatalf("round %d: full-body request failed beside by-reference ones: %v", round, fullErr)
		}
		for _, v := range refs {
			sameSolve(t, v.Result, fullView.Result)
		}
		hits += len(refs)
	}
	t.Logf("by-reference requests: %d missed, %d solved", misses, hits)
}

// TestByReferenceHoldsEntryWhileQueued: a by-reference job keeps the entry
// it resolved at submission, so evicting that entry while the job waits in
// the queue does not fail it.
func TestByReferenceHoldsEntryWhileQueued(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 1})
	defer s.Close()
	ctx := context.Background()
	full := laplace1D(30, "held")
	want, err := s.Solve(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the worker with a long keyless solve, which leaves the cache
	// alone, then queue the by-reference job behind it.
	busy := laplace1D(20000, "")
	busy.Solver = SolverSpec{RelResidualTol: 1e-15, MaxIter: 1 << 20}
	blocker, err := s.Submit(busy)
	if err != nil {
		t.Fatal(err)
	}
	job, err := s.Submit(byRef(full))
	if err != nil {
		t.Fatal(err)
	}
	s.cache.get("evicts the only slot")
	if _, ok := s.cache.built(full.CacheKey(), false); ok {
		t.Fatal("entry still cached; the test evicts nothing")
	}
	blocker.Cancel()
	<-job.Done()
	if err := job.Err(); err != nil {
		t.Fatalf("queued by-reference job failed after its entry was evicted: %v", err)
	}
	sameSolve(t, job.Result(), want.Result)
}
