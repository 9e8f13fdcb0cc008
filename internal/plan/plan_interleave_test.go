package plan

import (
	"testing"

	"repro/internal/kernel"
)

// TestPlanInterleave pins the wide-block layout decision: interleave exactly
// when the preconditioner sweeps panels (plain CG, or a PanelSweep
// splitting) and every tile clears DefaultWideBlockThreshold (balanced
// tiling makes the last tile the narrowest); s = 1 never interleaves.
func TestPlanInterleave(t *testing.T) {
	probe := tiled(16)
	for _, tc := range []struct {
		name  string
		s     int
		m     int
		sweep bool
		want  bool
	}{
		{"scalar solve stays columnar", 1, 0, false, false},
		{"narrow block under the threshold", 3, 0, false, false},
		{"at the threshold", 4, 0, false, true},
		{"full tile", 16, 0, false, true},
		{"split 9+8 keeps both wide", 17, 0, false, true},
		{"m-step without panel sweep stays columnar", 8, 2, false, false},
		{"m-step with panel sweep", 8, 2, true, true},
	} {
		p := Static(Inputs{Probe: probe, RHS: tc.s, M: tc.m, PanelSweep: tc.sweep})
		if p.Interleave != tc.want {
			t.Errorf("%s (s=%d): Interleave=%v want %v", tc.name, tc.s, p.Interleave, tc.want)
		}
	}
}

// TestPlanAutoPanelsRunCSR pins the layout rule on a fill-≈1 stencil
// (Poisson 48²: 5 diagonals, fill 0.983): Auto plans DIA for columns, but
// its interleaved tiles run CSR, the one storage with a panel product. A
// forced DIA policy keeps its storage and stays on columns.
func TestPlanAutoPanelsRunCSR(t *testing.T) {
	const rows = 48 * 48
	probe := &Probe{Rows: rows, Cols: rows, NNZ: 5*rows - 4*48, MaxRowNNZ: 5, NumDiags: 5, Fill: 0.983}
	if p := Static(Inputs{Probe: probe, RHS: 8, M: 0}); !p.Interleave || p.Backend != BackendCSR {
		t.Errorf("auto s=8 m=0: Interleave=%v Backend=%v, want true/csr", p.Interleave, p.Backend)
	}
	if p := Static(Inputs{Probe: probe, RHS: 8, M: 2, PanelSweep: true}); !p.Interleave || p.Backend != BackendCSR {
		t.Errorf("auto s=8 panel sweep: Interleave=%v Backend=%v, want true/csr", p.Interleave, p.Backend)
	}
	if p := Static(Inputs{Probe: probe, RHS: 3, M: 0}); p.Interleave || p.Backend != BackendDIA {
		t.Errorf("auto s=3: Interleave=%v Backend=%v, want false/dia", p.Interleave, p.Backend)
	}
	if p := Static(Inputs{Probe: probe, RHS: 8, M: 2}); p.Interleave || p.Backend != BackendDIA {
		t.Errorf("auto s=8 without panel sweep: Interleave=%v Backend=%v, want false/dia", p.Interleave, p.Backend)
	}
	if p := Static(Inputs{Probe: probe, Policy: BackendDIA, RHS: 8, M: 0}); p.Interleave || p.Backend != BackendDIA {
		t.Errorf("forced dia s=8: Interleave=%v Backend=%v, want false/dia", p.Interleave, p.Backend)
	}
}

// TestPlanPanelsNeverDIA: whatever the policy, probe, width, step count or
// sweep, Static never plans panels on DIA storage, which has no panel
// product.
func TestPlanPanelsNeverDIA(t *testing.T) {
	const rows = 48 * 48
	stencil := &Probe{Rows: rows, Cols: rows, NNZ: 5*rows - 4*48, MaxRowNNZ: 5, NumDiags: 5, Fill: 0.983}
	panels := 0
	for _, probe := range []*Probe{nil, stencil, tiled(16)} {
		for _, policy := range []Backend{BackendAuto, BackendCSR, BackendDIA} {
			for _, s := range []int{1, 3, 4, 8, 17, 40} {
				for _, m := range []int{0, 1, 3} {
					for _, sweep := range []bool{false, true} {
						p := Static(Inputs{Probe: probe, Policy: policy, RHS: s, M: m, PanelSweep: sweep})
						if p.Interleave && p.Backend == BackendDIA {
							t.Fatalf("policy %v s=%d m=%d sweep=%v: panels on dia", policy, s, m, sweep)
						}
						if p.Interleave {
							panels++
						}
					}
				}
			}
		}
	}
	if panels == 0 {
		t.Fatal("no input planned panels")
	}
}

// TestPlanKernel pins what the plan reports as the running kernel set: the
// active set on every path — panels, a scalar solve and a decomposed plan.
func TestPlanKernel(t *testing.T) {
	const rows = 1000
	probe := &Probe{Rows: rows, Cols: rows, NNZ: 5 * rows, MaxRowNNZ: 5, NumDiags: 5, Fill: 1}
	active := kernel.Active().Name
	if p := Static(Inputs{Probe: probe, RHS: 8}); !p.Interleave || p.Kernel != active {
		t.Errorf("wide block: Interleave=%v Kernel=%q want true/%q", p.Interleave, p.Kernel, active)
	}
	if p := Static(Inputs{Probe: probe, RHS: 1}); p.Interleave || p.Kernel != active {
		t.Errorf("scalar solve: Interleave=%v Kernel=%q want false/%q", p.Interleave, p.Kernel, active)
	}
	dc := &DecompInputs{Rows: rows, FreeNodes: rows, Requested: 4}
	if p := Static(Inputs{Probe: probe, RHS: 4, Policy: BackendDecomposed, Decomp: dc}); p.Kernel != active {
		t.Errorf("decomposed plan: Kernel=%q want %q", p.Kernel, active)
	}
}

// TestPlanAttrsKernel: the decision trail must carry the layout and kernel
// choices.
func TestPlanAttrsKernel(t *testing.T) {
	probe := &Probe{Rows: 1000, Cols: 1000, NNZ: 5000, MaxRowNNZ: 5, NumDiags: 5, Fill: 1}
	p := Static(Inputs{Probe: probe, RHS: 8})
	a := p.Attrs()
	if a["interleave"] != true {
		t.Errorf("attrs interleave = %v", a["interleave"])
	}
	if a["kernel"] != kernel.Active().Name {
		t.Errorf("attrs kernel = %v", a["kernel"])
	}
}
