package plan

import (
	"fmt"
	"reflect"
	"testing"
)

func TestParseTuning(t *testing.T) {
	for name, want := range map[string]TuningMode{
		"": TuningAdapt, "adapt": TuningAdapt, "off": TuningOff,
	} {
		got, err := ParseTuning(name)
		if err != nil || got != want {
			t.Errorf("ParseTuning(%q) = %v, %v; want %v", name, got, err, want)
		}
		if got.String() != name && name != "" {
			t.Errorf("String() round-trip: %q != %q", got.String(), name)
		}
	}
	for _, name := range []string{"aggressive", "observe"} {
		if _, err := ParseTuning(name); err == nil {
			t.Fatalf("unknown policy %q accepted", name)
		}
	}
}

func TestPlanSignature(t *testing.T) {
	p := Static(Inputs{Probe: tiled(8), RHS: 20, M: 3, Workers: 2})
	sig := p.Signature()
	// Tiling is balanced, so the signature width is the widest tile's.
	if sig.TileWidth != len(p.Tiles[0]) || sig.M != 3 || sig.Workers != p.Workers || sig.Backend != p.Backend {
		t.Fatalf("signature %+v does not describe plan %+v", sig, p)
	}
}

// tunerInputs is the boundary-case table the static planner's tests pin:
// scalar solves, exact-width batches, clamped widths, serial fallbacks.
// The tuner must return each static plan byte-for-byte when the problem is
// below the observation gate (and, trivially, when tuning is off — the
// engine never calls Decide then).
func tunerInputs() []Inputs {
	big := tiled(16)
	small := &Probe{Rows: 100, Cols: 100, NNZ: 300, NumDiags: 3, MaxRowNNZ: 3, Fill: 1}
	return []Inputs{
		{Probe: big, RHS: 1, M: 3, Workers: 2},   // scalar solve
		{Probe: big, RHS: 16, M: 3, Workers: 2},  // exactly one tile
		{Probe: big, RHS: 17, M: 3, Workers: 2},  // just over: 9+8 split
		{Probe: big, RHS: 129, M: 0, Workers: 4}, // many tiles, plain CG
		{Probe: small, RHS: 8, M: 1, Workers: 4}, // sub-parallel system
		{Probe: big, RHS: 63, M: 4, Workers: 3, Policy: BackendCSR},
	}
}

func TestDecideBelowGateIsStatic(t *testing.T) {
	tu := &Tuner{}
	for i, in := range tunerInputs() {
		key := fmt.Sprintf("problem-%d", i)
		base := Static(in)
		// Fewer observations than the gate: static plan, no evidence.
		for j := 0; j < DefaultMinObservations-1; j++ {
			tu.Observe(key, base.Signature(), Observation{RHSPerSec: 100})
		}
		got, d := tu.Decide(key, in)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("input %d: below-gate plan differs:\n got %+v\nwant %+v", i, got, base)
		}
		if len(d.Candidates) != 0 || d.Source != "" {
			t.Errorf("input %d: below-gate decision not empty: %+v", i, d)
		}
	}
}

func TestDecideDecomposedUntouched(t *testing.T) {
	tu := &Tuner{}
	in := Inputs{Policy: BackendDecomposed, M: 3, Decomp: &DecompInputs{Requested: 4}}
	base := Static(in)
	for i := 0; i < 3*DefaultMinObservations; i++ {
		tu.Observe("k", base.Signature(), Observation{RHSPerSec: 10})
	}
	got, d := tu.Decide("k", in)
	if !reflect.DeepEqual(got, base) || len(d.Candidates) != 0 {
		t.Fatalf("decomposed plan was tuned: %+v / %+v", got, d)
	}
}

// TestDecidePastGateEvidence: past the gate a decision carries every
// candidate, exactly one of them chosen, and the executed base plan with
// its measured throughput.
func TestDecidePastGateEvidence(t *testing.T) {
	tu := &Tuner{}
	in := tunerInputs()[2]
	base := Static(in)
	for i := 0; i < 2*DefaultMinObservations; i++ {
		tu.Observe("k", base.Signature(), Observation{RHSPerSec: 100})
	}
	_, d := tu.Decide("k", in)
	if len(d.Candidates) < 2 {
		t.Fatalf("no candidates past the gate: %+v", d)
	}
	chosen := 0
	for _, c := range d.Candidates {
		if c.Chosen {
			chosen++
		}
	}
	if chosen != 1 {
		t.Fatalf("%d chosen candidates, want 1: %+v", chosen, d)
	}
	if c := d.Candidates[0]; c.Signature != base.Signature() || c.Measured != 100 || c.Observations != 2*DefaultMinObservations {
		t.Fatalf("base candidate evidence wrong: %+v", c)
	}
}

// syntheticSpeed is the fake machine the convergence test runs on: m = 3 is
// the best reachable step count (the paper's machine-dependent optimum),
// every non-M variation is mediocre. No clocks — throughput is a pure
// function of the executed signature, so the whole loop is deterministic.
func syntheticSpeed(base Signature, sig Signature) float64 {
	other := sig
	other.M = base.M
	if other != base { // tile/worker/interleave variation
		return 60
	}
	switch sig.M {
	case 1:
		return 100
	case 2:
		return 140
	case 3:
		return 180
	case 4:
		return 120
	}
	return 50
}

// runTuningLoop simulates n solve rounds: each round executes whatever plan
// Decide picks and feeds the synthetic throughput back in. It returns the
// sequence of executed step counts.
func runTuningLoop(tu *Tuner, in Inputs, base Plan, n int) []int {
	ms := make([]int, 0, n)
	for i := 0; i < n; i++ {
		p, _ := tu.Decide("k", in)
		sig := p.Signature()
		tu.Observe("k", sig, Observation{RHSPerSec: syntheticSpeed(base.Signature(), sig), IterSeconds: 0.01})
		ms = append(ms, sig.M)
	}
	return ms
}

// TestTunerConvergesToBestCandidate drives the closed loop on a synthetic
// machine where the static m = 1 is suboptimal: the tuner must climb the
// neighborhood (m 1 → 2 → 3), settle on the best of the seeded candidates,
// and report the winner as a measured decision.
func TestTunerConvergesToBestCandidate(t *testing.T) {
	probe := tiled(8)
	in := Inputs{Probe: probe, RHS: 16, M: 1, Workers: 2}
	base := Static(in)
	tu := &Tuner{}

	runTuningLoop(tu, in, base, 80)

	final, d := tu.Decide("k", in)
	if got := final.Signature().M; got != 3 {
		t.Fatalf("converged to m = %d, want 3 (decision %+v)", got, d)
	}
	if d.Source != "measured" {
		t.Fatalf("converged decision source = %q, want measured", d.Source)
	}
	var chosen *Candidate
	for i := range d.Candidates {
		if d.Candidates[i].Chosen {
			chosen = &d.Candidates[i]
		}
	}
	if chosen == nil || chosen.Measured < 170 || chosen.Observations == 0 {
		t.Fatalf("winner's evidence missing: %+v", chosen)
	}
	// The winner's plan must stay structurally consistent with the inputs.
	checkTiles(t, final.Tiles, 16, 8)
}

// TestTunerDeterministic pins the clock- and randomness-free contract: two
// tuners fed the identical sequence make the identical decisions.
func TestTunerDeterministic(t *testing.T) {
	probe := tiled(8)
	in := Inputs{Probe: probe, RHS: 16, M: 1, Workers: 2}
	base := Static(in)
	a := runTuningLoop(&Tuner{}, in, base, 40)
	b := runTuningLoop(&Tuner{}, in, base, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical loops diverged:\n%v\n%v", a, b)
	}
}

func TestObserveBounds(t *testing.T) {
	tu := &Tuner{}
	sig := Signature{Backend: BackendCSR, TileWidth: 8, Workers: 1, M: 1}
	// Rejected observations never create state.
	tu.Observe("", sig, Observation{RHSPerSec: 1})
	tu.Observe("k", sig, Observation{RHSPerSec: -1})
	if len(tu.problems) != 0 {
		t.Fatalf("invalid observations stored: %d problems", len(tu.problems))
	}
	// Per-problem signature cap: the signature past the cap is dropped.
	for m := 1; m <= DefaultMaxSignatures+1; m++ {
		s := sig
		s.M = m
		tu.Observe("k", s, Observation{RHSPerSec: float64(m)})
	}
	over := sig
	over.M = DefaultMaxSignatures + 1
	if sigs := tu.problems["k"].sigs; len(sigs) != DefaultMaxSignatures || sigs[over] != nil {
		t.Fatalf("signature cap leaked: %d signatures", len(sigs))
	}
	// Problem cap: the coldest problem is evicted, the hot ones survive.
	for i := 2; i <= DefaultMaxProblems; i++ {
		tu.Observe(fmt.Sprintf("k%d", i), sig, Observation{RHSPerSec: 1})
	}
	if tu.problems["k"] == nil {
		t.Fatal("a problem evicted below the cap")
	}
	last := fmt.Sprintf("k%d", DefaultMaxProblems+1)
	tu.Observe(last, sig, Observation{RHSPerSec: 1})
	if len(tu.problems) != DefaultMaxProblems {
		t.Fatalf("problem cap leaked: %d problems", len(tu.problems))
	}
	if tu.problems["k"] != nil {
		t.Fatal("LRU eviction kept the coldest problem")
	}
	if tu.problems[last] == nil {
		t.Fatal("newest problem evicted")
	}
}

// TestTunerCandidatesNeedPanelSweep: no candidate claims the panel layout
// for an m-step preconditioner that cannot sweep panels — not the
// interleave toggle, not a retiled plan, not a step-count change away from
// plain CG.
func TestTunerCandidatesNeedPanelSweep(t *testing.T) {
	probe := tiled(8)
	for _, m := range []int{0, 2} {
		in := Inputs{Probe: probe, RHS: 16, M: m, Workers: 2}
		base := Static(in)
		tu := &Tuner{}
		for i := 0; i < DefaultMinObservations; i++ {
			tu.Observe("k", base.Signature(), Observation{RHSPerSec: 100})
		}
		_, d := tu.Decide("k", in)
		if len(d.Candidates) < 2 {
			t.Fatalf("m=%d: no candidates past the gate", m)
		}
		for _, c := range d.Candidates {
			if c.Signature.Interleave && c.Signature.M > 0 {
				t.Fatalf("m=%d: candidate %+v interleaves a preconditioner without a panel sweep", m, c.Signature)
			}
		}
	}
}

// TestDecideIgnoresOtherBatchWidths: a request is scored against its own
// static plans only. Five s = 8 solves of the same key at 60 rhs/s must
// leave an s = 1 request's next six picks exactly as they are without
// them.
func TestDecideIgnoresOtherBatchWidths(t *testing.T) {
	scalar := Inputs{Probe: tiled(16), RHS: 1, M: 3}
	static := Static(scalar).Signature()
	picks := func(wide bool) []Signature {
		tu := &Tuner{}
		if wide {
			in := scalar
			in.RHS = 8
			for i := 0; i < 5; i++ {
				tu.Observe("k", Static(in).Signature(), Observation{RHSPerSec: 60})
			}
		}
		for i := 0; i < 10; i++ {
			tu.Observe("k", static, Observation{RHSPerSec: 20})
		}
		var out []Signature
		for round := 0; round < 6; round++ {
			p, d := tu.Decide("k", scalar)
			for _, c := range d.Candidates {
				if c.Observations == 0 {
					tu.Observe("k", c.Signature, Observation{RHSPerSec: 15})
				}
			}
			speed := 15.0
			if p.Signature() == static {
				speed = 20
			}
			tu.Observe("k", p.Signature(), Observation{RHSPerSec: speed})
			out = append(out, p.Signature())
		}
		return out
	}
	if alone, after := picks(false), picks(true); !reflect.DeepEqual(alone, after) {
		t.Fatalf("s = 8 solves steered the s = 1 picks:\nalone: %+v\nafter: %+v", alone, after)
	}
}

// TestCandidatesAreStaticPlans: past the gate every candidate is Static's
// plan at its step count. On the stencil, Jacobi at m = 1 plans DIA
// columns while m = 0 plans CSR panels; on three columns no step count
// plans panels.
func TestCandidatesAreStaticPlans(t *testing.T) {
	const rows = 48 * 48
	stencil := &Probe{Rows: rows, Cols: rows, NNZ: 5*rows - 4*48, MaxRowNNZ: 5, NumDiags: 5, Fill: 0.983}
	for _, in := range []Inputs{
		{Probe: stencil, RHS: 8, M: 1},
		{Probe: tiled(16), RHS: 3, M: 0},
	} {
		tu := &Tuner{}
		for i := 0; i < DefaultMinObservations; i++ {
			tu.Observe("k", Static(in).Signature(), Observation{RHSPerSec: 100})
		}
		_, d := tu.Decide("k", in)
		if len(d.Candidates) < 2 {
			t.Fatalf("s=%d m=%d: no candidates past the gate", in.RHS, in.M)
		}
		for _, c := range d.Candidates {
			at := in
			at.M = c.Plan.M
			if want := Static(at); !reflect.DeepEqual(c.Plan, want) {
				t.Errorf("s=%d m=%d: candidate\n%+v\nis not Static at m=%d:\n%+v", in.RHS, in.M, c.Plan, at.M, want)
			}
		}
	}
}
