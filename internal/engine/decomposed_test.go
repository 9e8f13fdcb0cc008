package engine

import (
	"context"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// decompReq is a plate request pinned to the decomposed backend.
func decompReq(rows, cols, m, p int) Request {
	return Request{
		Plate:  &PlateSpec{Rows: rows, Cols: cols},
		Solver: SolverSpec{M: m, Tol: 1e-7, Backend: "decomposed", Subdomains: p},
	}
}

// TestDecomposedBackendMatchesCSR is the ISSUE's acceptance check: the same
// request through BackendDecomposed at P = 4 produces the same displacements
// as the single-matrix CSR path, to tolerance.
func TestDecomposedBackendMatchesCSR(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	csr := Request{
		Plate:  &PlateSpec{Rows: 14, Cols: 14},
		Solver: SolverSpec{M: 2, Tol: 1e-7, Backend: "csr"},
	}
	want, err := s.Solve(context.Background(), csr)
	if err != nil {
		t.Fatal(err)
	}

	v, err := s.Solve(context.Background(), decompReq(14, 14, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	res := v.Result
	if res == nil || !res.Converged {
		t.Fatalf("decomposed job not converged: %+v", v)
	}
	if res.Backend != "decomposed" {
		t.Fatalf("backend = %q, want decomposed", res.Backend)
	}
	if res.Plan == nil || res.Plan.Subdomains != 4 {
		t.Fatalf("plan = %+v, want 4 subdomains", res.Plan)
	}
	var scale float64
	for _, x := range want.Result.U {
		if a := math.Abs(x); a > scale {
			scale = a
		}
	}
	for i := range want.Result.U {
		if d := math.Abs(res.U[i] - want.Result.U[i]); d > 1e-5*scale+1e-9 {
			t.Fatalf("solution deviates at %d by %g", i, d)
		}
	}
	if len(res.NodeU) != len(want.Result.NodeU) {
		t.Fatalf("node displacements missing: %d vs %d", len(res.NodeU), len(want.Result.NodeU))
	}

	// The trace carries the per-subdomain stage breakdown.
	ti, ok := s.Trace(res.JobID)
	if !ok {
		t.Fatalf("no trace for %s", res.JobID)
	}
	counts := map[string]int{}
	subSeen := map[string]map[int]bool{
		"halo_exchange": {}, "local_sweep": {}, "reduce": {},
	}
	for _, sp := range ti.Spans {
		counts[sp.Name]++
		if set, ok := subSeen[sp.Name]; ok {
			if r, ok := sp.Attrs["subdomain"].(int); ok {
				set[r] = true
			}
		}
	}
	if counts["decompose"] != 1 {
		t.Errorf("want one decompose span, got %d", counts["decompose"])
	}
	for _, name := range []string{"halo_exchange", "local_sweep", "reduce"} {
		if counts[name] != 4 {
			t.Errorf("%s spans = %d, want one per subdomain (4)", name, counts[name])
		}
		if len(subSeen[name]) != 4 {
			t.Errorf("%s spans cover %d distinct subdomains, want 4", name, len(subSeen[name]))
		}
	}

	// Operational counters attribute the job to the decomposed backend.
	st := s.Stats()
	if st.SolvesDecomposed != 1 {
		t.Errorf("solves_decomposed = %d, want 1", st.SolvesDecomposed)
	}
	if n := s.hJobDuration["decomposed"].Count(); n != 1 {
		t.Errorf("repro_job_duration_seconds{backend=\"decomposed\"} counts %d jobs, want 1", n)
	}
}

// TestDecomposedPlanEndpoint: PlanRequest reports the decomposed backend and
// subdomain count without solving, matching the plan the solve then runs.
func TestDecomposedPlanEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := decompReq(12, 12, 2, 3)
	pi, err := s.PlanRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if pi.Backend != "decomposed" || pi.Subdomains != 3 {
		t.Fatalf("plan = %+v, want decomposed/3", pi)
	}
	v, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := *v.Result.Plan; got.Backend != pi.Backend || got.Subdomains != pi.Subdomains {
		t.Fatalf("solve plan %+v != offline plan %+v", got, pi)
	}
}

// TestDecomposedBatch: batched load cases run sequentially over the one
// decomposition, each emitting its own case result.
func TestDecomposedBatch(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := Request{
		Plate:  &PlateSpec{Rows: 10, Cols: 10, Tractions: []float64{1, 2.5, -1}},
		Solver: SolverSpec{M: 1, Tol: 1e-7, Backend: "decomposed", Subdomains: 2},
	}
	v, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res := v.Result
	if !res.Converged || len(res.Cases) != 3 {
		t.Fatalf("batch result %+v", res)
	}
	// Load linearity: case k is case 0 scaled by its traction ratio (each
	// case converged independently to Tol, so agreement is to solver
	// tolerance, not machine precision).
	for i := range res.Cases[0].U {
		want := 2.5 * res.Cases[0].U[i]
		if d := math.Abs(res.Cases[1].U[i] - want); d > 1e-4*math.Abs(want)+1e-7 {
			t.Fatalf("case 1 not linear in traction at %d: %g vs %g", i, res.Cases[1].U[i], want)
		}
	}
}

// TestDecomposedRejectsGeneralSystems: the decomposed backend needs the
// mesh, so forcing it on a coordinate-form system fails cleanly.
func TestDecomposedRejectsGeneralSystems(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := laplace1D(64, "")
	req.Solver.Backend = "decomposed"
	if _, err := s.Solve(context.Background(), req); err == nil {
		t.Fatal("want failure for decomposed backend on a general system")
	}
}

// TestDecomposedRejectsIncompatibleSplitting: the subdomain sweep is the
// multicolor SSOR at ω = 1; forcing the backend with another splitting must
// fail rather than silently run the wrong preconditioner.
func TestDecomposedRejectsIncompatibleSplitting(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	req := Request{
		Plate:  &PlateSpec{Rows: 8, Cols: 8},
		Solver: SolverSpec{M: 2, Splitting: "jacobi", Tol: 1e-7, Backend: "decomposed", Subdomains: 2},
	}
	if _, err := s.Solve(context.Background(), req); err == nil {
		t.Fatal("want failure for decomposed backend with a jacobi splitting")
	}
}

// TestSubdomainsValidation: the subdomain pin is bounds-checked at submit.
func TestSubdomainsValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, bad := range []int{-1, maxSubdomains + 1} {
		req := plateReq(6, 6, 0)
		req.Solver.Subdomains = bad
		if _, err := s.Submit(req); err == nil {
			t.Errorf("subdomains = %d accepted", bad)
		}
	}
}

// TestDecomposedCountsLikeCSR: a decomposed job counts its work by the
// rules of a CSR job of the same plate — one product and one
// preconditioner application per iteration (plain CG's identity included),
// two inner products per iteration — and records one α per iteration.
func TestDecomposedCountsLikeCSR(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, m := range []int{0, 2} {
		for _, backend := range []string{"csr", "decomposed"} {
			req := Request{
				Plate:  &PlateSpec{Rows: 12, Cols: 12},
				Solver: SolverSpec{M: m, Tol: 1e-7, Backend: backend},
			}
			if backend == "decomposed" {
				req.Solver.Subdomains = 2
			}
			v, err := s.Solve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			res := v.Result
			it := res.Iterations
			if res.MatVecs != it || res.PrecondApps != it || res.InnerProducts != 2*it {
				t.Errorf("%s m=%d: %d iterations, %d matvecs, %d precond apps, %d inner products; want %d, %d, %d",
					backend, m, it, res.MatVecs, res.PrecondApps, res.InnerProducts, it, it, 2*it)
			}
			if res.CGStats == nil || len(res.CGStats.CGAlphas) != it {
				t.Errorf("%s m=%d: CG stats %+v, want %d alphas", backend, m, res.CGStats, it)
			}
		}
	}
}

// TestPlanTilesMatchExecutedTiles: a job executes exactly the tiles its
// plan lists, so Stats.TilesExecuted and repro_tiles_executed_total grow by
// len(Plan.Tiles), and PlanRequest lists the tiles the solve runs. A
// decomposed batch gives every case a tile; a CSR batch this narrow is one
// block tile.
func TestPlanTilesMatchExecutedTiles(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	tilesMetric := func() int64 {
		var sb strings.Builder
		if err := s.WriteMetrics(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "repro_tiles_executed_total "); ok {
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return int64(n)
			}
		}
		t.Fatal("exposition has no repro_tiles_executed_total")
		return 0
	}
	for _, tc := range []struct {
		backend string
		tiles   [][]int
	}{
		{"decomposed", [][]int{{0}, {1}, {2}}},
		{"csr", [][]int{{0, 1, 2}}},
	} {
		req := Request{
			Plate:  &PlateSpec{Rows: 10, Cols: 10, Tractions: []float64{1, 2.5, -1}},
			Solver: SolverSpec{M: 1, Tol: 1e-7, Backend: tc.backend, Subdomains: 2},
		}
		planned, err := s.PlanRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		stats, metric := s.Stats().TilesExecuted, tilesMetric()
		v, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		tiles := v.Result.Plan.Tiles
		if !reflect.DeepEqual(tiles, tc.tiles) {
			t.Errorf("%s: plan tiles %v, want %v", tc.backend, tiles, tc.tiles)
		}
		if !reflect.DeepEqual(planned.Tiles, tiles) {
			t.Errorf("%s: PlanRequest tiles %v, solve ran %v", tc.backend, planned.Tiles, tiles)
		}
		if grew := s.Stats().TilesExecuted - stats; grew != int64(len(tiles)) {
			t.Errorf("%s: tiles_executed grew by %d for a %d-tile plan", tc.backend, grew, len(tiles))
		}
		if grew := tilesMetric() - metric; grew != int64(len(tiles)) {
			t.Errorf("%s: repro_tiles_executed_total grew by %d for a %d-tile plan", tc.backend, grew, len(tiles))
		}
	}
}
