package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
)

// TestSolveRejectsUnknownKernel: the entry point validates the kernel
// policy before doing any work.
func TestSolveRejectsUnknownKernel(t *testing.T) {
	sys, _ := plateSystem(t, 6, 6)
	cfg := core.Config{M: 2, Splitting: core.SSORMulticolor, Kernel: "fast"}
	if _, err := solveOnce(sys, cfg); err == nil || !strings.Contains(err.Error(), "kernel policy") {
		t.Fatalf("Solve: want kernel-policy error, got %v", err)
	}
}

// TestSolveReportsKernel: a scalar solve runs the column layout, whose
// loops dispatch through the startup kernel set, and reports that set
// whatever the policy asks for.
func TestSolveReportsKernel(t *testing.T) {
	sys, _ := plateSystem(t, 8, 8)
	for _, policy := range []string{"", "portable"} {
		res, err := solveOnce(sys, core.Config{M: 2, Splitting: core.SSORMulticolor, Tol: 1e-8, MaxIter: 10000, Kernel: policy})
		if err != nil {
			t.Fatal(err)
		}
		if res.Kernel != kernel.Active().Name {
			t.Fatalf("policy %q: scalar solve kernel %q, want %q", policy, res.Kernel, kernel.Active().Name)
		}
	}
}
