package plan

import (
	"fmt"
	"reflect"
	"testing"
)

func TestParseTuning(t *testing.T) {
	for name, want := range map[string]TuningMode{
		"": TuningAdapt, "adapt": TuningAdapt,
		"observe": TuningObserve, "off": TuningOff,
	} {
		got, err := ParseTuning(name)
		if err != nil || got != want {
			t.Errorf("ParseTuning(%q) = %v, %v; want %v", name, got, err, want)
		}
		if got.String() != name && name != "" {
			t.Errorf("String() round-trip: %q != %q", got.String(), name)
		}
	}
	if _, err := ParseTuning("aggressive"); err == nil {
		t.Fatal("unknown policy accepted")
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
		for _, adapt := range []bool{false, true} {
			got, d := tu.Decide(key, in, base, adapt)
			if !reflect.DeepEqual(got, base) {
				t.Errorf("input %d adapt=%v: below-gate plan differs:\n got %+v\nwant %+v", i, adapt, got, base)
			}
			if len(d.Candidates) != 0 || d.Source != "" {
				t.Errorf("input %d: below-gate decision not empty: %+v", i, d)
			}
		}
	}
}

func TestDecideDecomposedUntouched(t *testing.T) {
	tu := &Tuner{}
	base := Plan{Backend: BackendDecomposed, Subdomains: 4, M: 3}
	for i := 0; i < 3*DefaultMinObservations; i++ {
		tu.Observe("k", base.Signature(), Observation{RHSPerSec: 10})
	}
	got, d := tu.Decide("k", Inputs{}, base, true)
	if !reflect.DeepEqual(got, base) || len(d.Candidates) != 0 {
		t.Fatalf("decomposed plan was tuned: %+v / %+v", got, d)
	}
}

func TestDecideObserveModeKeepsStatic(t *testing.T) {
	tu := &Tuner{}
	in := tunerInputs()[2]
	base := Static(in)
	for i := 0; i < 2*DefaultMinObservations; i++ {
		tu.Observe("k", base.Signature(), Observation{RHSPerSec: 100})
	}
	got, d := tu.Decide("k", in, base, false)
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("observe mode changed the plan:\n got %+v\nwant %+v", got, base)
	}
	if len(d.Candidates) == 0 || !d.Candidates[0].Chosen || d.Source != "static" {
		t.Fatalf("observe mode evidence wrong: %+v", d)
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
		p, _ := tu.Decide("k", in, base, true)
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

	final, d := tu.Decide("k", in, base, true)
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
	if n := tu.Observations("k"); n != 0 {
		t.Fatalf("invalid observations stored: %d", n)
	}
	// Per-problem signature cap: the signature past the cap is dropped.
	for m := 1; m <= DefaultMaxSignatures+1; m++ {
		s := sig
		s.M = m
		tu.Observe("k", s, Observation{RHSPerSec: float64(m)})
	}
	if n := tu.Observations("k"); n != DefaultMaxSignatures {
		t.Fatalf("signature cap leaked: %d observations", n)
	}
	// Problem cap: the coldest problem is evicted, the hot ones survive.
	for i := 2; i <= DefaultMaxProblems; i++ {
		tu.Observe(fmt.Sprintf("k%d", i), sig, Observation{RHSPerSec: 1})
	}
	if tu.Observations("k") == 0 {
		t.Fatal("a problem evicted below the cap")
	}
	last := fmt.Sprintf("k%d", DefaultMaxProblems+1)
	tu.Observe(last, sig, Observation{RHSPerSec: 1})
	if tu.Observations("k") != 0 {
		t.Fatal("LRU eviction kept the coldest problem")
	}
	if tu.Observations(last) == 0 {
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
		_, d := tu.Decide("k", in, base, false)
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
