package repro_test

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/client"
)

// solverPair starts one engine twice over: in process (NewLocal) and
// behind an httptest daemon driven through the client SDK. Both use the
// same sizing so their planners decide identically.
func solverPair(t *testing.T) (local, remote repro.Solver) {
	t.Helper()
	cfg := repro.LocalConfig{Workers: 2, WorkerBudget: 1}
	l := repro.NewLocal(cfg)
	t.Cleanup(func() { l.Close() })

	svc := repro.NewService(cfg)
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return l, client.New(srv.URL)
}

// normalizeResult strips the in-process-only detail (full CG stats) that
// deliberately does not cross the wire, plus the session-local job id, so
// local and remote results can be compared field for field.
func normalizeResult(r repro.JobResult) repro.JobResult {
	r.JobID = ""
	r.CGStats = nil
	for i := range r.Cases {
		r.Cases[i].CGStats = nil
	}
	return r
}

// TestSolverParityLocalVsClient is the acceptance test for the one-solver
// contract: the same Request produces the same JobResult — iterations,
// backend, plan, interval, coefficients, per-case outcomes and solutions
// bit for bit — through the in-process solver and the HTTP client SDK.
func TestSolverParityLocalVsClient(t *testing.T) {
	local, remote := solverPair(t)

	problem, err := repro.NewPlateProblem(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	general := laplaceProblem(t, 40)

	cases := []struct {
		name string
		req  repro.Request
	}{
		{"plate scalar least-squares", repro.Request{
			Plate:  &repro.PlateSpec{Rows: 10, Cols: 10},
			Solver: repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-7},
		}},
		{"plate traction batch", repro.Request{
			Plate:  &repro.PlateSpec{Rows: 8, Cols: 8, Tractions: []float64{1, 2.5, -1, 1e-9}},
			Solver: repro.SolverSpec{M: 2, Coeffs: "chebyshev", Tol: 1e-8},
		}},
		{"forced csr backend", repro.Request{
			Plate:  &repro.PlateSpec{Rows: 10, Cols: 10},
			Solver: repro.SolverSpec{M: 2, Backend: "csr", Tol: 1e-7},
		}},
		{"prebuilt plate problem", repro.Request{
			Problem: problem,
			Solver:  repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-7},
		}},
		{"prebuilt general problem", repro.Request{
			Problem: general,
			Solver:  repro.SolverSpec{M: 2, Splitting: "jacobi", RelResidualTol: 1e-10},
		}},
		{"iteration-limited batch with per-case errors", repro.Request{
			Plate:        &repro.PlateSpec{Rows: 16, Cols: 16, Tractions: []float64{1, 1e-9}},
			Solver:       repro.SolverSpec{M: 0, Tol: 1e-12, MaxIter: 4},
			OmitSolution: true,
		}},
	}

	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lres, lerr := local.Solve(ctx, tc.req)
			rres, rerr := remote.Solve(ctx, tc.req)
			if (lerr == nil) != (rerr == nil) {
				t.Fatalf("error parity broken: local %v, remote %v", lerr, rerr)
			}
			if lerr != nil && lerr.Error() != rerr.Error() {
				t.Fatalf("error text differs:\nlocal:  %v\nremote: %v", lerr, rerr)
			}
			ln, rn := normalizeResult(lres), normalizeResult(rres)
			if !reflect.DeepEqual(ln, rn) {
				t.Fatalf("results differ:\nlocal:  %+v\nremote: %+v", ln, rn)
			}

			// The offline plan agrees across the boundary too, and with the
			// plan the solve actually executed.
			lplan, err := local.Plan(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			rplan, err := remote.Plan(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lplan, rplan) {
				t.Fatalf("plans differ: local %+v, remote %+v", lplan, rplan)
			}
			if ln.Plan == nil || !reflect.DeepEqual(*ln.Plan, lplan) {
				t.Fatalf("executed plan %+v != offline plan %+v", ln.Plan, lplan)
			}
		})
	}

	// Both sessions report engine-shaped stats.
	lst, err := local.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rst, err := remote.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if lst.JobsDone == 0 || rst.JobsDone == 0 {
		t.Fatalf("stats missing jobs: local %d, remote %d", lst.JobsDone, rst.JobsDone)
	}
}

// laplaceProblem builds a 1-D Laplacian through the public MatrixBuilder.
func laplaceProblem(t *testing.T, n int) *repro.Problem {
	t.Helper()
	b := repro.NewMatrixBuilder(n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 2)
		if i > 0 {
			b.Add(i, i-1, -1)
			b.Add(i-1, i, -1)
		}
	}
	f := make([]float64, n)
	f[n/2] = 1
	p, err := b.Problem(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSolverValidationParity: malformed requests fail the same way through
// both implementations (engine validation locally, a 400 with the same
// message remotely). A by-reference system whose key was never sent in
// full fails the same way too, with 409 remotely.
func TestSolverValidationParity(t *testing.T) {
	local, remote := solverPair(t)
	bad := []struct {
		req    repro.Request
		status int
	}{
		{repro.Request{}, 400}, // no problem at all
		{repro.Request{Plate: &repro.PlateSpec{Rows: 1, Cols: 5}}, 400},
		{repro.Request{Plate: &repro.PlateSpec{Rows: 4, Cols: 4}, Solver: repro.SolverSpec{Backend: "ellpack"}}, 400},
		{repro.Request{System: &repro.SystemSpec{N: 2, I: []int{5}, J: []int{0}, V: []float64{1}, F: make([]float64, 2)}}, 400},
		{repro.Request{System: &repro.SystemSpec{N: 2, F: make([]float64, 2), Key: "never-sent"}}, 409},
	}
	ctx := context.Background()
	for i, b := range bad {
		_, lerr := local.Solve(ctx, b.req)
		_, rerr := remote.Solve(ctx, b.req)
		if lerr == nil || rerr == nil {
			t.Fatalf("bad request %d accepted: local %v, remote %v", i, lerr, rerr)
		}
		if lerr.Error() != rerr.Error() {
			t.Fatalf("bad request %d error text differs:\nlocal:  %v\nremote: %v", i, lerr, rerr)
		}
		if client.StatusCode(rerr) != b.status {
			t.Fatalf("bad request %d: remote status %d, want %d", i, client.StatusCode(rerr), b.status)
		}
	}
}

// hardEasyRequest is the streaming fixture: one hard load case plus easy
// near-zero ones that converge almost immediately, so per-case results
// must surface long before the job finishes.
func hardEasyRequest(easy int) repro.Request {
	tr := make([]float64, 1+easy)
	tr[0] = 1
	for i := 1; i < len(tr); i++ {
		tr[i] = 1e-9
	}
	return repro.Request{
		Plate:        &repro.PlateSpec{Rows: 40, Cols: 40, Tractions: tr},
		Solver:       repro.SolverSpec{M: 0, Tol: 1e-9},
		OmitSolution: true,
	}
}

// TestSolveStreamParity drives the same batch through both solvers'
// streaming APIs: every case arrives exactly once, cases precede the
// terminal done event, and the easy columns surface before the job ends.
func TestSolveStreamParity(t *testing.T) {
	local, remote := solverPair(t)
	const easy = 4
	req := hardEasyRequest(easy)

	for _, s := range []struct {
		name   string
		solver repro.Solver
	}{{"local", local}, {"remote", remote}} {
		t.Run(s.name, func(t *testing.T) {
			var events []repro.CaseEvent
			var done *repro.JobView
			err := s.solver.SolveStream(context.Background(), req, func(ev repro.CaseEvent) {
				if ev.Done != nil {
					done = ev.Done
					return
				}
				events = append(events, ev)
			})
			if err != nil {
				t.Fatal(err)
			}
			if done == nil {
				t.Fatal("no terminal done event")
			}
			if done.State != repro.JobDone {
				t.Fatalf("done state %s", done.State)
			}
			if len(events) != 1+easy {
				t.Fatalf("streamed %d case events, want %d", len(events), 1+easy)
			}
			seen := map[int]bool{}
			for _, ev := range events {
				if seen[ev.Case] {
					t.Fatalf("case %d delivered twice", ev.Case)
				}
				seen[ev.Case] = true
			}
			if events[0].Case == 0 {
				t.Fatal("hard case streamed first — easy columns did not surface early")
			}
			if done.Result == nil || len(done.Result.Cases) != 1+easy {
				t.Fatalf("done view missing cases: %+v", done)
			}
		})
	}
}

// TestClientStreamCancelMidStream: canceling the context mid-stream
// returns ctx.Err() and cancels the remote job — the daemon must record a
// failed, canceled job rather than solving it to completion.
func TestClientStreamCancelMidStream(t *testing.T) {
	cfg := repro.LocalConfig{Workers: 1, WorkerBudget: 1}
	svc := repro.NewService(cfg)
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	cl := client.New(srv.URL)

	// One very hard case (large plate, near-machine tolerance: thousands of
	// plain-CG iterations) plus easies that converge almost immediately:
	// cancel as soon as the first easy case streams, while the hard column
	// is still far from converged.
	req := repro.Request{
		Plate:        &repro.PlateSpec{Rows: 60, Cols: 60, Tractions: []float64{1, 1e-9, 1e-9, 1e-9}},
		Solver:       repro.SolverSpec{M: 0, Tol: 1e-14},
		OmitSolution: true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sawCase bool
	err := cl.SolveStream(ctx, req, func(ev repro.CaseEvent) {
		if ev.Result != nil && !sawCase {
			sawCase = true
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled stream returned %v, want context.Canceled", err)
	}
	if !sawCase {
		t.Fatal("no case event arrived before cancellation")
	}

	// The remote job must terminate as failed (canceled), not keep running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.JobsFailed >= 1 && st.Running == 0 {
			break
		}
		if st.JobsDone >= 1 {
			t.Fatal("canceled job ran to completion")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job leaked after cancel: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLocalWarmCachePath is the in-process acceptance test: a second
// identical solve of the same *Problem hits the session cache (skipping
// assembly and interval estimation), and the cache-hit stats prove it.
func TestLocalWarmCachePath(t *testing.T) {
	p, err := repro.NewPlateProblem(12, 12)
	if err != nil {
		t.Fatal(err)
	}
	req := repro.Request{Problem: p, Solver: repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-7}}

	l := repro.NewLocal(repro.LocalConfig{Workers: 1})
	defer l.Close()
	ctx := context.Background()
	first, err := l.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if second.Iterations != first.Iterations ||
		second.IntervalLo != first.IntervalLo || second.IntervalHi != first.IntervalHi {
		t.Fatal("warm solve diverged from the cold solve")
	}

	// A fresh session has a cold cache and builds the problem's setup
	// again; the build is deterministic, so the interval (and hence the
	// method) is identical.
	l2 := repro.NewLocal(repro.LocalConfig{Workers: 1})
	defer l2.Close()
	third, err := l2.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if third.IntervalLo != first.IntervalLo || third.IntervalHi != first.IntervalHi {
		t.Fatal("a fresh session built a different interval")
	}
}

// TestProblemSetupTracedLikeSpec: a prebuilt Problem's spectral estimate is
// built by the engine's cache-entry build alone, so planning a fresh
// Problem builds no interval, and its first Chebyshev solve traces the
// estimate the way a spec request's does: a spectral_estimate span, and
// precond_build reading interval_source "estimate" on the interval a
// PlateSpec request for the same plate reports.
func TestProblemSetupTracedLikeSpec(t *testing.T) {
	p, err := repro.NewPlateProblem(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	solver := repro.SolverSpec{M: 3, Coeffs: "chebyshev", Tuning: "off"}
	l := repro.NewLocal(repro.LocalConfig{Workers: 1})
	defer l.Close()
	ctx := context.Background()
	if _, err := l.Plan(ctx, repro.Request{Problem: p, Solver: solver}); err != nil {
		t.Fatal(err)
	}
	res, err := l.Solve(ctx, repro.Request{Problem: p, Solver: solver, OmitSolution: true})
	if err != nil {
		t.Fatal(err)
	}
	ti, err := l.Trace(ctx, res.JobID)
	if err != nil {
		t.Fatal(err)
	}
	var stages []string
	var build map[string]any
	estimated := false
	for _, sp := range ti.Spans {
		stages = append(stages, sp.Name)
		switch sp.Name {
		case "spectral_estimate":
			estimated = true
		case "precond_build":
			build = sp.Attrs
		}
	}
	if !estimated {
		t.Fatalf("stages %v, want a spectral_estimate span", stages)
	}
	if build["interval_source"] != "estimate" || build["interval_lo"] != res.IntervalLo || build["interval_hi"] != res.IntervalHi {
		t.Fatalf("precond_build attrs %v, want interval_source estimate on [%g, %g]", build, res.IntervalLo, res.IntervalHi)
	}
	spec, err := l.Solve(ctx, repro.Request{Plate: &repro.PlateSpec{Rows: 16, Cols: 16}, Solver: solver, OmitSolution: true})
	if err != nil {
		t.Fatal(err)
	}
	if spec.IntervalLo != res.IntervalLo || spec.IntervalHi != res.IntervalHi {
		t.Fatalf("Problem interval [%g, %g], PlateSpec interval [%g, %g]", res.IntervalLo, res.IntervalHi, spec.IntervalLo, spec.IntervalHi)
	}
}

// TestAutoPlateBatchMatchesDIABitwise: on the warm plate batch shape (a 52²
// plate, 8 tractions, m = 3 least-squares) Auto runs the interleaved tiles
// on CSR, forced DIA storage runs columns, and the answers agree bit for
// bit: DIA's row sums add the same products in the same order plus zero
// padding.
func TestAutoPlateBatchMatchesDIABitwise(t *testing.T) {
	l := repro.NewLocal(repro.LocalConfig{Workers: 1})
	defer l.Close()
	tr := []float64{0.5, 0.7, 0.9, 1.1, 1.3, 1.5, 1.7, 2}
	solve := func(backend string) repro.JobResult {
		t.Helper()
		res, err := l.Solve(context.Background(), repro.Request{
			Plate:  &repro.PlateSpec{Rows: 52, Cols: 52, Tractions: tr},
			Solver: repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-5, Backend: backend},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || len(res.Cases) != len(tr) {
			t.Fatalf("%s: converged %v, %d cases", backend, res.Converged, len(res.Cases))
		}
		return res
	}
	dia, auto := solve("dia"), solve("auto")
	if dia.Backend != "dia" || auto.Backend != "csr" {
		t.Fatalf("backends dia→%q auto→%q, want dia/csr", dia.Backend, auto.Backend)
	}
	if auto.Plan == nil || !auto.Plan.Interleave {
		t.Fatalf("auto plan %+v does not interleave the 8-wide batch", auto.Plan)
	}
	if dia.Plan == nil || dia.Plan.Interleave {
		t.Fatalf("dia plan %+v runs the 8-wide batch on panels, want columns", dia.Plan)
	}
	if auto.Iterations != dia.Iterations {
		t.Fatalf("block iterations auto %d, dia %d", auto.Iterations, dia.Iterations)
	}
	for k, want := range dia.Cases {
		got := auto.Cases[k]
		if got.Iterations != want.Iterations || math.Float64bits(got.FinalRelRes) != math.Float64bits(want.FinalRelRes) {
			t.Fatalf("case %d: auto %d its relres %v, dia %d its relres %v",
				k, got.Iterations, got.FinalRelRes, want.Iterations, want.FinalRelRes)
		}
		if len(got.U) != len(want.U) {
			t.Fatalf("case %d: solution lengths %d vs %d", k, len(got.U), len(want.U))
		}
		for i := range want.U {
			if math.Float64bits(got.U[i]) != math.Float64bits(want.U[i]) {
				t.Fatalf("case %d: U[%d] auto %v, dia %v", k, i, got.U[i], want.U[i])
			}
		}
	}
}

// TestSolveWrapperMatchesSession: the package-level Solve convenience
// wrapper and an explicit session produce identical numbers for the same
// problem and configuration.
func TestSolveWrapperMatchesSession(t *testing.T) {
	p, err := repro.NewPlateProblem(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Solve(p, repro.Config{M: 3, Coeffs: repro.LeastSquaresCoeffs, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}

	l := repro.NewLocal(repro.LocalConfig{Workers: 1, WorkerBudget: 1})
	defer l.Close()
	jr, err := l.Solve(context.Background(), repro.Request{
		Problem: p,
		Solver:  repro.SolverSpec{M: 3, Coeffs: "least-squares", Tol: 1e-7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if jr.Iterations != res.Stats.Iterations {
		t.Fatalf("session took %d iterations, wrapper %d", jr.Iterations, res.Stats.Iterations)
	}
	if !reflect.DeepEqual(jr.U, res.U) {
		t.Fatal("session and wrapper solutions differ")
	}
	if jr.IntervalLo != res.Interval.Lo || jr.IntervalHi != res.Interval.Hi {
		t.Fatal("session and wrapper intervals differ")
	}
}
