package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fem"
)

// TestBuildSplittingRejectsBadOmega pins the ω guard: anything outside
// (0, 2) — for every splitting kind, since SSOR diverges there — fails
// fast with a clear message instead of silently producing an indefinite
// preconditioner. ω = 0 means "unset" and keeps the paper's default of 1.
func TestBuildSplittingRejectsBadOmega(t *testing.T) {
	sys, _, err := core.PlateSystem(6, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.SplittingKind{core.SSORMulticolor, core.SSORNatural, core.JacobiSplitting} {
		for _, omega := range []float64{-1, -0.5, 2, 2.5, 100} {
			_, err := core.BuildSplitting(sys, core.Config{Splitting: kind, Omega: omega})
			if err == nil {
				t.Fatalf("%s with ω = %g accepted", kind, omega)
			}
			if !strings.Contains(err.Error(), "(0, 2)") {
				t.Fatalf("ω error not descriptive: %v", err)
			}
		}
		for _, omega := range []float64{0, 1, 0.5, 1.9} {
			if _, err := core.BuildSplitting(sys, core.Config{Splitting: kind, Omega: omega}); err != nil {
				t.Fatalf("%s with ω = %g rejected: %v", kind, omega, err)
			}
		}
	}

	// Solve surfaces the same rejection end to end.
	if _, err := solveOnce(sys, core.Config{M: 2, Omega: 3}); err == nil {
		t.Fatal("Solve accepted ω = 3")
	}
}

// TestSolveWorkersMatchesSerial checks that a session's kernel fan-out
// (engine.Config.WorkerBudget) changes only the execution strategy, not the
// method: iteration counts agree and solutions coincide with the one-shot
// serial solve.
func TestSolveWorkersMatchesSerial(t *testing.T) {
	sys, _, err := core.PlateSystem(10, 10, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{M: 2, Tol: 1e-8}
	serial, err := solveOnce(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 1, WorkerBudget: 4})
	defer eng.Close()
	v, err := eng.Solve(context.Background(), engine.Request{Prebuilt: &engine.Prebuilt{Sys: sys, Config: cfg}})
	if err != nil {
		t.Fatal(err)
	}
	par := v.Result
	if !serial.Stats.Converged || !par.Converged {
		t.Fatal("not converged")
	}
	// n < the parallel threshold here, so the kernels fall back to serial
	// and the runs must be bitwise identical — the budget is safe by default.
	if serial.Stats.Iterations != par.Iterations {
		t.Fatalf("iterations %d vs %d", serial.Stats.Iterations, par.Iterations)
	}
	for i := range serial.U {
		if serial.U[i] != par.U[i] {
			t.Fatalf("solution differs at %d", i)
		}
	}
}
