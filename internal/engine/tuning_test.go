package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/plan"
	"repro/internal/poly"
)

// tuningReq is a keyed batch request with the tuning policy pinned: enough
// columns to tile, keyed so every solve shares one cache entry.
func tuningReq(key, tuning string) Request {
	req := laplaceBatch(60, 12, key)
	req.Solver.Tuning = tuning
	return req
}

// TestTuningOffStaysStatic pins the escape hatch: with tuning off the plan
// is the static planner's decision on every solve — byte-for-byte, with no
// evidence attached and nothing fed back — no matter how warm the problem.
func TestTuningOffStaysStatic(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := tuningReq("tuning-off", "off")
	var first *PlanInfo
	for i := 0; i < plan.DefaultMinObservations+3; i++ {
		v, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if v.Result.Plan == nil {
			t.Fatal("result missing plan")
		}
		if i == 0 {
			first = v.Result.Plan
			continue
		}
		if !reflect.DeepEqual(v.Result.Plan, first) {
			t.Fatalf("solve %d: off-mode plan drifted:\n got %+v\nwant %+v", i, v.Result.Plan, first)
		}
	}
	if first.Tuning != "off" || first.Source != "static" || len(first.Candidates) != 0 {
		t.Fatalf("off-mode plan carries tuning evidence: %+v", first)
	}
	// The offline plan matches the executed one exactly, warm or not.
	pi, err := s.PlanRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&pi, first) {
		t.Fatalf("offline off-mode plan differs:\n got %+v\nwant %+v", &pi, first)
	}
	if st := s.Stats(); st.PlanFeedback != 0 {
		t.Fatalf("off mode recorded %d feedback observations", st.PlanFeedback)
	}
}

// TestTuningFeedbackRecorded: every clean cached solve folds its realized
// throughput into the tuner — visible in the stats counter and as a
// feedback stage on the job trace.
func TestTuningFeedbackRecorded(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := tuningReq("tuning-fb", "adapt")
	var last JobView
	const solves = 3
	for i := 0; i < solves; i++ {
		v, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		last = v
	}
	if st := s.Stats(); st.PlanFeedback != solves {
		t.Fatalf("plan_feedback_total = %d, want %d", st.PlanFeedback, solves)
	}
	ti, ok := s.Trace(last.ID)
	if !ok {
		t.Fatal("trace missing")
	}
	found := false
	for _, sp := range ti.Spans {
		if sp.Name == "feedback" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no feedback span on trace: %+v", ti.Spans)
	}
}

// TestTuningAdaptEvidence: past the gate, adapt mode attaches the candidate
// table to results and offline plans. A cold problem's plan carries none;
// a warm one carries exactly one chosen candidate, and every measured
// candidate its throughput.
func TestTuningAdaptEvidence(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := tuningReq("tuning-evidence", "adapt")
	var cold, warm *PlanInfo
	for i := 0; i < plan.DefaultMinObservations+2; i++ {
		v, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cold = v.Result.Plan
		}
		warm = v.Result.Plan
	}
	if cold.Source != "static" || len(cold.Candidates) != 0 {
		t.Fatalf("cold adapt-mode plan carries evidence: %+v", cold)
	}
	if warm.Tuning != "adapt" || len(warm.Candidates) == 0 {
		t.Fatalf("warm adapt-mode plan has no evidence: %+v", warm)
	}
	chosen := 0
	for _, c := range warm.Candidates {
		if c.Chosen {
			chosen++
		}
		if c.Observations > 0 && c.MeasuredRHSPerSec <= 0 {
			t.Fatalf("measured candidate without throughput: %+v", c)
		}
	}
	if chosen != 1 {
		t.Fatalf("%d chosen candidates, want exactly 1", chosen)
	}
	// The offline plan carries the same evidence through POST /v1/plan.
	pi, err := s.PlanRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(pi.Candidates) == 0 || pi.Tuning != "adapt" {
		t.Fatalf("offline plan missing evidence: %+v", pi)
	}
}

// TestTuningAdaptExecutesTunedPlan: in adapt mode a warm problem's executed
// plan is the selector's winner, its decision source explains why, and an
// alternate step count (when chosen) still solves correctly against the
// entry's alternate-M preconditioner pool.
func TestTuningAdaptExecutesTunedPlan(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := tuningReq("tuning-adapt", "adapt")
	var last JobView
	for i := 0; i < plan.DefaultMinObservations+6; i++ {
		v, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Result.Converged {
			t.Fatalf("solve %d not converged under adaptation", i)
		}
		last = v
	}
	pl := last.Result.Plan
	if pl.Tuning != "adapt" || len(pl.Candidates) == 0 {
		t.Fatalf("warm adapt-mode plan has no evidence: %+v", pl)
	}
	if pl.Source != "static" && pl.Source != "measured" && pl.Source != "explore" {
		t.Fatalf("unknown plan source %q", pl.Source)
	}
	var chosen *PlanCandidate
	for i := range pl.Candidates {
		if pl.Candidates[i].Chosen {
			chosen = &pl.Candidates[i]
		}
	}
	if chosen == nil {
		t.Fatalf("no chosen candidate: %+v", pl.Candidates)
	}
	// The executed plan is the chosen candidate.
	if chosen.M != pl.M || chosen.Workers != pl.Workers || chosen.Interleave != pl.Interleave {
		t.Fatalf("executed plan %+v is not the chosen candidate %+v", pl, chosen)
	}
	// The result's alphas must match the executed M, even when tuned away
	// from the request's m (the alternate preconditioner pool).
	if pl.M > 0 && last.Result.Alphas != nil && last.Result.Alphas.M() != pl.M {
		t.Fatalf("alphas for m=%d but plan executed m=%d", last.Result.Alphas.M(), pl.M)
	}
}

// TestTuningValidation: unknown policies are rejected at every boundary.
func TestTuningValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := tuningReq("tuning-bad", "aggressive")
	if _, err := s.Submit(req); err == nil {
		t.Fatal("unknown tuning policy accepted by Submit")
	}
	if _, err := s.PlanRequest(req); err == nil {
		t.Fatal("unknown tuning policy accepted by PlanRequest")
	}
	// "observe" names no policy either.
	if _, err := s.Submit(tuningReq("tuning-observe", "observe")); err == nil {
		t.Fatal(`policy "observe" accepted by Submit`)
	}
	// Policy names are case-insensitive on the wire.
	ok := tuningReq("tuning-case", "ADAPT")
	if _, err := s.Solve(context.Background(), ok); err != nil {
		t.Fatalf("case-insensitive policy rejected: %v", err)
	}
}

// TestTuningMalformedSessionDefault: a request that defers to a session
// default that names no policy fails at Submit and PlanRequest, naming the
// engine's Tuning setting, instead of silently solving with tuning off. A
// request that pins its own policy never reads the default.
func TestTuningMalformedSessionDefault(t *testing.T) {
	s := New(Config{Workers: 1, Tuning: "adaptive"})
	defer s.Close()

	req := Request{Plate: &PlateSpec{Rows: 6, Cols: 6}, Solver: SolverSpec{M: 1}}
	if _, err := s.Submit(req); err == nil || !strings.Contains(err.Error(), "Tuning setting") {
		t.Fatalf("Submit under a malformed session default: err = %v", err)
	}
	if _, err := s.PlanRequest(req); err == nil || !strings.Contains(err.Error(), "Tuning setting") {
		t.Fatalf("PlanRequest under a malformed session default: err = %v", err)
	}
	sys, _, err := core.PlateSystem(6, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Request{Prebuilt: &Prebuilt{Sys: sys, Config: core.Config{M: 1}}}); err == nil {
		t.Fatal("prebuilt request deferring to a malformed session default accepted")
	}
	req.Solver.Tuning = "off"
	if _, err := s.Solve(context.Background(), req); err != nil {
		t.Fatalf("request pinning its own policy failed: %v", err)
	}
}

// TestTuningExcludedFromCacheKey: the policy is execution policy, not
// problem identity — flipping it must not build a second cache entry.
func TestTuningExcludedFromCacheKey(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	if _, err := s.Solve(context.Background(), tuningReq("tuning-key", "off")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Solve(context.Background(), tuningReq("tuning-key", "adapt"))
	if err != nil {
		t.Fatal(err)
	}
	if !v.CacheHit {
		t.Fatal("changing tuning policy missed the cache")
	}
	if st := s.Stats(); st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.CacheEntries)
	}
}

// TestCheckoutMIntervalPerStepCount: an entry fitted on the SSOR bound
// pins nothing, so each alternate step count a tuned plan checks out takes
// its own interval — the bound again at m ≤ poly.LeastSquaresStableM, an
// estimate past it — and gets the α a fresh build at that count gets. (On
// the bound, m = 12's least-squares α are not positive on this plate.) An
// alternate count's estimate is pinned on its pool, so a rebuild after the
// pool drains reuses it.
func TestCheckoutMIntervalPerStepCount(t *testing.T) {
	req := plateReq(16, 16, 10)
	e := &cacheEntry{}
	e.once.Do(func() { e.build(&req, nil) })
	if e.err != nil {
		t.Fatal(e.err)
	}
	if e.pools[10].cfg.Interval != nil {
		t.Fatalf("entry pinned the SSOR bound %+v", *e.pools[10].cfg.Interval)
	}
	for _, m := range []int{9, 11, 12} {
		fresh, err := req.coreConfig()
		if err != nil {
			t.Fatal(err)
		}
		fresh.M = m
		_, want, _, err := core.BuildPreconditioner(e.sys, fresh)
		if err != nil {
			t.Fatalf("m=%d: fresh build: %v", m, err)
		}
		for round := 0; round < 2; round++ {
			sp, p, err := e.checkout(m)
			if err != nil {
				t.Fatalf("m=%d round %d: %v", m, round, err)
			}
			if got := sp.alphas; !reflect.DeepEqual(got, want) {
				t.Fatalf("m=%d round %d: α %+v, fresh build %+v", m, round, got, want)
			}
			if round == 0 {
				sp.pool.Put(p) // the second round takes it back from the pool
				continue
			}
			// Build past the drained pool: the same α again.
			if again, _, err := e.checkout(m); err != nil || !reflect.DeepEqual(again.alphas, want) {
				t.Fatalf("m=%d rebuild: α %+v (%v), fresh build %+v", m, again.alphas, err, want)
			}
		}
		estimated := m > poly.LeastSquaresStableM
		if pinned := e.pools[m].cfg.Interval != nil; pinned != estimated {
			t.Fatalf("m=%d: alternate pool pinned an interval = %v, want %v", m, pinned, estimated)
		}
	}
}

// TestTunedStepCountReportsItsInterval: a job the tuner runs at another
// step count reports the interval and α of the preconditioner it ran, as
// a fresh build at that count gets them. A 16² plate at m = 10 least
// squares fits on the SSOR bound; its explored m = 11 candidate fits on an
// estimate instead.
func TestTunedStepCountReportsItsInterval(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := plateReq(16, 16, 10)
	req.Solver.Tuning = "adapt"
	sys, _, err := core.PlateSystem(16, 16, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type fit struct {
		alphas poly.Alphas
		lo, hi float64
	}
	fresh := map[int]fit{}
	for i := 0; i < 30 && len(fresh) < 2; i++ {
		v, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		m := v.Result.Plan.M
		if m != 10 && m != 11 {
			continue
		}
		want, ok := fresh[m]
		if !ok {
			cfg, err := req.coreConfig()
			if err != nil {
				t.Fatal(err)
			}
			cfg.M = m
			_, alphas, iv, err := core.BuildPreconditioner(sys, cfg)
			if err != nil {
				t.Fatalf("m=%d: fresh build: %v", m, err)
			}
			want = fit{alphas, iv.Lo, iv.Hi}
			fresh[m] = want
		}
		if lo, hi := v.Result.IntervalLo, v.Result.IntervalHi; lo != want.lo || hi != want.hi {
			t.Fatalf("solve %d at m=%d reports interval [%g, %g], its α fit [%g, %g]", i, m, lo, hi, want.lo, want.hi)
		}
		if v.Result.Alphas == nil || !reflect.DeepEqual(*v.Result.Alphas, want.alphas) {
			t.Fatalf("solve %d at m=%d reports α %+v, a fresh build %+v", i, m, v.Result.Alphas, want.alphas)
		}
	}
	if _, ok := fresh[11]; !ok {
		t.Fatal("the tuner never explored m = 11")
	}
	if fresh[10].lo == fresh[11].lo {
		t.Fatalf("m = 10 and m = 11 fit on one interval [%g, %g]; the test needs them apart", fresh[10].lo, fresh[10].hi)
	}
}

// TestPlanRequestAfterEviction: the tuner's observations outlive an
// evicted cache entry, so planning an evicted problem must still take the
// tuner's decision, the one its next solve runs.
func TestPlanRequestAfterEviction(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 1})
	defer s.Close()
	a := plateReq(12, 12, 2)
	a.Solver.Tuning = "adapt"
	for i := 0; i < plan.DefaultMinObservations; i++ {
		if _, err := s.Solve(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Solve(context.Background(), plateReq(10, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.CacheEntries)
	}
	planned, err := s.PlanRequest(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Solve(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if v.CacheHit {
		t.Fatal("the evicted problem hit the cache")
	}
	if !reflect.DeepEqual(planned, *v.Result.Plan) {
		t.Fatalf("plan of the evicted problem %+v, its solve ran %+v", planned, *v.Result.Plan)
	}
	if planned.Source == "static" || len(planned.Candidates) == 0 {
		t.Fatalf("plan past the observation gate carries no tuner decision: %+v", planned)
	}
}
