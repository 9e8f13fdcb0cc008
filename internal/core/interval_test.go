package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/eigen"
)

// The interval decision: SSOR least squares (either weight, either
// ordering) at ω = 1 and 1 ≤ m ≤ 10 fits on the fixed bound and runs no
// spectral estimate; Chebyshev, Jacobi, ω ≠ 1 and m = 11 estimate; a
// pinned interval stays pinned. BuildPreconditionerPhased opens
// spectral_estimate exactly when one runs, and precond_build names the
// source and the interval.
func TestIntervalDecision(t *testing.T) {
	sys, _ := plateSystem(t, 6, 6)
	bound := eigen.Interval{Lo: 1e-9, Hi: 1.02}
	pinned := eigen.Interval{Lo: 0.01, Hi: 1.1}
	type tc struct {
		cfg  core.Config
		want string
	}
	var cases []tc
	for _, coeffs := range []core.CoeffKind{core.LeastSquaresCoeffs, core.WeightedLSCoeffs} {
		for _, sk := range []core.SplittingKind{core.SSORMulticolor, core.SSORNatural} {
			for _, omega := range []float64{0, 1} {
				for _, m := range []int{1, 10} {
					cases = append(cases, tc{core.Config{M: m, Splitting: sk, Coeffs: coeffs, Omega: omega}, core.SourceSSORBound})
				}
			}
			for _, omega := range []float64{0.8, 1.5} {
				cases = append(cases, tc{core.Config{M: 3, Splitting: sk, Coeffs: coeffs, Omega: omega}, core.SourceEstimate})
			}
			cases = append(cases,
				tc{core.Config{M: 11, Splitting: sk, Coeffs: coeffs}, core.SourceEstimate},
				tc{core.Config{M: 3, Splitting: sk, Coeffs: coeffs, Interval: &pinned}, core.SourcePinned})
		}
		cases = append(cases, tc{core.Config{M: 3, Splitting: core.JacobiSplitting, Coeffs: coeffs}, core.SourceEstimate})
	}
	for _, sk := range []core.SplittingKind{core.SSORMulticolor, core.SSORNatural, core.JacobiSplitting} {
		cases = append(cases,
			tc{core.Config{M: 3, Splitting: sk, Coeffs: core.ChebyshevCoeffs}, core.SourceEstimate},
			tc{core.Config{M: 3, Splitting: sk, Coeffs: core.ChebyshevCoeffs, Interval: &pinned}, core.SourcePinned})
	}
	// A Config without coefficients, as the experiments pass it, estimates
	// when asked for an interval, but its preconditioner build runs none.
	if got := core.IntervalSource(core.Config{}); got != core.SourceEstimate {
		t.Errorf("IntervalSource(Config{}) = %q, want %q", got, core.SourceEstimate)
	}
	for _, c := range []core.Config{{}, {M: 3}, {Coeffs: core.ChebyshevCoeffs}} {
		if core.RunsEstimate(c) {
			t.Errorf("RunsEstimate(%+v) = true for a build without an interval", c)
		}
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v %v ω=%g m=%d pinned=%v", c.cfg.Splitting, c.cfg.Coeffs, c.cfg.Omega, c.cfg.M, c.cfg.Interval != nil)
		if got := core.IntervalSource(c.cfg); got != c.want {
			t.Errorf("%s: IntervalSource = %q, want %q", name, got, c.want)
		}
		if got := core.RunsEstimate(c.cfg); got != (c.want == core.SourceEstimate) {
			t.Errorf("%s: RunsEstimate = %v", name, got)
		}
		var phases []string
		var attrs map[string]any
		_, _, iv, err := core.BuildPreconditionerPhased(sys, c.cfg, func(name string, kv ...any) func() {
			phases = append(phases, name)
			if name == "precond_build" {
				attrs = map[string]any{}
				for i := 0; i+1 < len(kv); i += 2 {
					attrs[kv[i].(string)] = kv[i+1]
				}
			}
			return func() {}
		})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		estimated := len(phases) == 3 && phases[1] == "spectral_estimate"
		if estimated != (c.want == core.SourceEstimate) {
			t.Errorf("%s: phases %v, want spectral_estimate only when estimating", name, phases)
		}
		if attrs["interval_source"] != c.want || attrs["interval_lo"] != iv.Lo || attrs["interval_hi"] != iv.Hi {
			t.Errorf("%s: precond_build attrs %v, want source %q on [%g, %g]", name, attrs, c.want, iv.Lo, iv.Hi)
		}
		switch c.want {
		case core.SourceSSORBound:
			if iv != bound {
				t.Errorf("%s: interval %v, want the bound %v", name, iv, bound)
			}
		case core.SourcePinned:
			if iv != pinned {
				t.Errorf("%s: interval %v, want the pinned %v", name, iv, pinned)
			}
		}
	}
}
