package repro

import (
	"testing"

	"repro/internal/core"
)

// TestProblemSetupMemoization pins the *Problem-level memo: the structure
// probe is computed once (stable pointer), and the spectral interval is
// estimated once per (splitting, ω, seed) and replayed bit-identically —
// including into the engine request, where it arrives pre-pinned so cache
// misses skip the spectral estimate. Configs that run no estimate (unit
// coefficients, SSOR least squares on its bound) pin nothing and leave the
// memo alone.
func TestProblemSetupMemoization(t *testing.T) {
	p, err := NewPlateProblem(10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.probeRef() != p.probeRef() {
		t.Fatal("structure probe recomputed on second use")
	}
	if p.probeRef().NNZ == 0 {
		t.Fatal("probe empty")
	}

	cfg := core.Config{M: 3, Coeffs: core.ChebyshevCoeffs}
	first, ok := p.intervalFor(cfg)
	if !ok {
		t.Fatal("Chebyshev config ran no estimate")
	}
	again, ok := p.intervalFor(cfg)
	if !ok {
		t.Fatal("memoized estimate missing")
	}
	if first != again {
		t.Fatalf("memoized interval changed: %+v vs %+v", first, again)
	}
	// Tolerances, coefficient criteria and step counts share the memo
	// entry (least squares past m = 10 estimates too); a different ω does
	// not.
	other := cfg
	other.Coeffs = core.LeastSquaresCoeffs
	other.M = 11
	other.Tol = 1e-3
	if iv, ok := p.intervalFor(other); !ok || iv != first {
		t.Fatalf("coeff/tol change split the memo: %+v (%v)", iv, ok)
	}
	if len(p.ivMemo) != 1 {
		t.Fatalf("memo holds %d entries, want 1", len(p.ivMemo))
	}
	relaxed := cfg
	relaxed.Omega = 1.5
	if _, ok := p.intervalFor(relaxed); !ok {
		t.Fatal("relaxed config ran no estimate")
	}
	if len(p.ivMemo) != 2 {
		t.Fatalf("ω change did not get its own memo entry: %d", len(p.ivMemo))
	}

	// The engine request carries the memoized interval pre-pinned.
	req := Request{Problem: p, Solver: SolverSpec{M: 3, Coeffs: "chebyshev"}}
	ereq, err := req.engineRequest()
	if err != nil {
		t.Fatal(err)
	}
	if ereq.Prebuilt == nil || ereq.Prebuilt.Config.Interval == nil {
		t.Fatal("engine request missing the pinned interval")
	}
	if *ereq.Prebuilt.Config.Interval != first {
		t.Fatal("pinned interval differs from the memo")
	}
	if ereq.Prebuilt.Probe != p.probeRef() {
		t.Fatal("engine request does not share the memoized probe")
	}
	if ereq.Prebuilt.Key != p.id {
		t.Fatal("engine request not keyed by problem identity")
	}

	// Configs that run no estimate get none from the memo: unit
	// coefficients, no steps, and least squares at m ≤ 10 (the SSOR bound).
	for _, c := range []core.Config{
		{M: 2},
		{Coeffs: core.ChebyshevCoeffs},
		{M: 3, Coeffs: core.LeastSquaresCoeffs},
		{M: 10, Coeffs: core.WeightedLSCoeffs, Splitting: core.SSORNatural},
	} {
		if _, ok := p.intervalFor(c); ok {
			t.Fatalf("%+v: memo returned an estimate", c)
		}
	}
	// Nor do their engine requests pin an interval.
	for _, solver := range []SolverSpec{{M: 2}, {M: 3, Coeffs: "least-squares"}, {M: 10, Coeffs: "least-squares"}} {
		oreq, err := Request{Problem: p, Solver: solver}.engineRequest()
		if err != nil {
			t.Fatal(err)
		}
		if oreq.Prebuilt.Config.Interval != nil {
			t.Fatalf("%+v: request pinned an interval", solver)
		}
	}
	if len(p.ivMemo) != 2 {
		t.Fatalf("requests that run no estimate changed the memo: %d entries", len(p.ivMemo))
	}
}
