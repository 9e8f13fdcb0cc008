package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

// TestSolveReportsKernel: a scalar solve runs the column layout, whose
// loops dispatch through the startup kernel set, and reports that set.
func TestSolveReportsKernel(t *testing.T) {
	sys, _ := plateSystem(t, 8, 8)
	res, err := solveOnce(sys, core.Config{M: 2, Splitting: core.SSORMulticolor, Tol: 1e-8, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != kernel.Active().Name {
		t.Fatalf("scalar solve kernel %q, want %q", res.Kernel, kernel.Active().Name)
	}
}
