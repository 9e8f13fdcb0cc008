package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fem"
	"repro/internal/kernel"
)

// TestPrebuiltRejectsSolverSpec: a prebuilt request's Config is its whole
// solver configuration, so a SolverSpec beside it, which the engine would
// ignore, fails validation instead.
func TestPrebuiltRejectsSolverSpec(t *testing.T) {
	sys, _, err := core.PlateSystem(6, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Prebuilt: &Prebuilt{Sys: sys, Config: core.Config{M: 1}}, Solver: SolverSpec{M: 1}}
	if err := req.Validate(); err == nil || !strings.Contains(err.Error(), "solver spec") {
		t.Fatalf("prebuilt with a solver spec: want rejection, got %v", err)
	}
	req.Solver = SolverSpec{}
	if err := req.Validate(); err != nil {
		t.Fatalf("prebuilt without a solver spec rejected: %v", err)
	}
}

// TestEnginePlanReportsKernel: the job's recorded plan carries the kernel
// set and layout decision; a wide plate batch interleaves on the startup
// set.
func TestEnginePlanReportsKernel(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	req := Request{
		Plate:  &PlateSpec{Rows: 8, Cols: 8, Tractions: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		Solver: SolverSpec{M: 2, RelResidualTol: 1e-9},
	}
	v, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Result == nil || v.Result.Plan == nil {
		t.Fatal("no plan recorded on the batch result")
	}
	if !v.Result.Plan.Interleave {
		t.Fatalf("8-wide plate batch did not interleave: %+v", v.Result.Plan)
	}
	if v.Result.Plan.Kernel != kernel.Active().Name {
		t.Fatalf("plan kernel %q, want %q", v.Result.Plan.Kernel, kernel.Active().Name)
	}
}

// TestPlanLayoutMatchesExecution: the plan claims the interleaved panel
// layout exactly when the preconditioner can sweep panels — plain CG, or
// multicolor SSOR at ω = 1 — and the batch is wide enough. For every
// splitting and batch width the offline plan equals the executed plan, and
// the layout the solve span reports equals the plan's.
func TestPlanLayoutMatchesExecution(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, sc := range []struct {
		splitting string
		omega     float64
		m         int
		panels    bool
	}{
		{"ssor-multicolor", 0, 2, true},
		{"ssor-multicolor", 1.5, 2, false},
		{"ssor-natural", 0, 2, false},
		{"jacobi", 0, 1, false},
		{"jacobi", 0, 0, true},
	} {
		for _, rhs := range []int{1, 3, 4, 8} {
			name := fmt.Sprintf("%s ω=%g m=%d s=%d", sc.splitting, sc.omega, sc.m, rhs)
			tr := make([]float64, rhs)
			for i := range tr {
				tr[i] = float64(i + 1)
			}
			req := Request{
				Plate:  &PlateSpec{Rows: 8, Cols: 8, Tractions: tr},
				Solver: SolverSpec{M: sc.m, Splitting: sc.splitting, Omega: sc.omega, RelResidualTol: 1e-9, Tuning: "off"},
			}
			offline, err := s.PlanRequest(req)
			if err != nil {
				t.Fatalf("%s: plan: %v", name, err)
			}
			v, err := s.Solve(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: solve: %v", name, err)
			}
			if !reflect.DeepEqual(*v.Result.Plan, offline) {
				t.Fatalf("%s: executed plan %+v != offline %+v", name, *v.Result.Plan, offline)
			}
			if want := sc.panels && rhs >= 4; offline.Interleave != want {
				t.Fatalf("%s: plan interleave = %v, want %v", name, offline.Interleave, want)
			}
			ti, _ := s.Trace(v.ID)
			spans := 0
			for _, sp := range ti.Spans {
				if sp.Name != "tile" && sp.Name != "solve" {
					continue
				}
				spans++
				if sp.Attrs["interleaved"] != offline.Interleave {
					t.Fatalf("%s: %s span interleaved = %v, plan says %v", name, sp.Name, sp.Attrs["interleaved"], offline.Interleave)
				}
			}
			if spans != len(offline.Tiles) {
				t.Fatalf("%s: %d solve spans for %d tiles", name, spans, len(offline.Tiles))
			}
		}
	}
}
