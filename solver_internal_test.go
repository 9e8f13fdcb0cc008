package repro

import (
	"testing"

	"repro/internal/core"
)

// TestProblemSetupMemoization pins the *Problem-level memo: the structure
// probe is computed once (stable pointer), and the spectral interval is
// estimated once per (splitting, ω, seed) and replayed bit-identically —
// including into the engine request, where it arrives pre-pinned so cache
// misses skip the spectral estimate.
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

	cfg := core.Config{M: 3, Coeffs: core.LeastSquaresCoeffs}
	first, err := p.intervalFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := p.intervalFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("memoized interval changed: %+v vs %+v", first, again)
	}
	// Tolerances and coefficient criteria share the memo entry; a different
	// seed does not.
	other := cfg
	other.Coeffs = core.ChebyshevCoeffs
	other.Tol = 1e-3
	if iv, err := p.intervalFor(other); err != nil || iv != first {
		t.Fatalf("coeff/tol change split the memo: %+v (%v)", iv, err)
	}
	if len(p.ivMemo) != 1 {
		t.Fatalf("memo holds %d entries, want 1", len(p.ivMemo))
	}
	seeded := cfg
	seeded.Seed = 7
	if _, err := p.intervalFor(seeded); err != nil {
		t.Fatal(err)
	}
	if len(p.ivMemo) != 2 {
		t.Fatalf("seed change did not get its own memo entry: %d", len(p.ivMemo))
	}

	// The engine request carries the memoized interval pre-pinned.
	req := Request{Problem: p, Solver: SolverSpec{M: 3, Coeffs: "least-squares"}}
	ereq, err := req.engineRequest()
	if err != nil {
		t.Fatal(err)
	}
	if ereq.Prebuilt == nil || ereq.Prebuilt.Config == nil || ereq.Prebuilt.Config.Interval == nil {
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

	// Unparametrized solves never trigger estimation.
	ones := Request{Problem: p, Solver: SolverSpec{M: 2}}
	oreq, err := ones.engineRequest()
	if err != nil {
		t.Fatal(err)
	}
	if oreq.Prebuilt.Config.Interval != nil {
		t.Fatal("unparametrized request pinned an interval")
	}
}
