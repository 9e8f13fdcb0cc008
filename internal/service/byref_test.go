package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// laplaceReq is the keyed n-point 1-D Laplacian with a unit load in the
// middle, as a full body.
func laplaceReq(n int, key string) SolveRequest {
	var i, j []int
	var v []float64
	for k := 0; k < n; k++ {
		i, j, v = append(i, k), append(j, k), append(v, 2)
		if k > 0 {
			i, j, v = append(i, k, k-1), append(j, k-1, k), append(v, -1, -1)
		}
	}
	f := make([]float64, n)
	f[n/2] = 1
	return SolveRequest{
		System: &SystemSpec{N: n, I: i, J: j, V: v, F: f, Key: key},
		Solver: SolverSpec{M: 2, RelResidualTol: 1e-10},
	}
}

// byRefReq drops the triplets: the system named by its key alone.
func byRefReq(req SolveRequest) SolveRequest {
	sy := *req.System
	sy.I, sy.J, sy.V = nil, nil, nil
	req.System = &sy
	return req
}

// TestHTTPByReference: a by-reference body is solved from the cache once a
// full body was, answers 409 on every miss path at both /v1/solve and
// /v1/plan (async submissions included), and is counted in /v1/stats and
// /metrics.
func TestHTTPByReference(t *testing.T) {
	svc := New(Config{Workers: 1, CacheSize: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	conflict := func(what string, body any, paths ...string) {
		t.Helper()
		for _, path := range paths {
			resp, b := postJSON(t, srv, path, body)
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("%s %s: status %d (%s), want 409", what, path, resp.StatusCode, b)
			}
			var e errorResponse
			mustUnmarshal(t, b, &e)
			if !strings.HasPrefix(e.Error, ErrNotCached.Error()) {
				t.Fatalf("%s %s: error %q does not carry ErrNotCached's message", what, path, e.Error)
			}
		}
	}
	solved := func(body any) JobView {
		t.Helper()
		resp, b := postJSON(t, srv, "/v1/solve", body)
		var v JobView
		mustUnmarshal(t, b, &v)
		if resp.StatusCode != http.StatusOK || v.State != JobDone {
			t.Fatalf("solve: status %d state %s (%s)", resp.StatusCode, v.State, b)
		}
		return v
	}

	a, b := laplaceReq(24, "a"), laplaceReq(24, "b")
	both := []string{"/v1/solve", "/v1/plan"}
	conflict("cold node", byRefReq(a), both...)
	conflict("cold node async", solveHTTPRequest{SolveRequest: byRefReq(a), Async: true}, "/v1/solve")

	full := solved(a)
	ref := solved(byRefReq(a))
	if !ref.CacheHit || ref.Result.Iterations != full.Result.Iterations {
		t.Fatalf("by-reference solve: hit %v, %d iterations; full body took %d", ref.CacheHit, ref.Result.Iterations, full.Result.Iterations)
	}
	other := byRefReq(a)
	other.Solver.M = 0
	conflict("unseen solver config", other, both...)

	solved(b) // the one-entry cache evicts a
	conflict("evicted entry", byRefReq(a), both...)

	var st Stats
	getJSON(t, srv, "/v1/stats", &st)
	if st.ByRefSolves != 1 || st.ByRefMisses != 7 {
		t.Fatalf("stats: %d by-reference solves, %d misses; want 1, 7", st.ByRefSolves, st.ByRefMisses)
	}
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"repro_by_ref_solves_total 1", "repro_by_ref_misses_total 7"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
