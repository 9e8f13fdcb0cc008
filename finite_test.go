package repro_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro"
)

// laplacian returns the 1-D Laplacian's triplets (tridiagonal 2, −1) with
// the (0, 0) entry set to d00.
func laplacian(n int, d00 float64) (is, js []int, vs []float64) {
	for i := 0; i < n; i++ {
		d := 2.0
		if i == 0 {
			d = d00
		}
		is, js, vs = append(is, i), append(js, i), append(vs, d)
		if i+1 < n {
			is, js, vs = append(is, i, i+1), append(js, i+1, i), append(vs, -1, -1)
		}
	}
	return is, js, vs
}

// rhs returns a length-n right-hand side of ones with entry 3 set to x.
func rhs(n int, x float64) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 1
	}
	f[3] = x
	return f
}

// builderProblem assembles the Laplacian through the public builder.
func builderProblem(n int, d00 float64, f []float64) (*repro.Problem, error) {
	b := repro.NewMatrixBuilder(n)
	is, js, vs := laplacian(n, d00)
	for k := range is {
		b.Add(is[k], js[k], vs[k])
	}
	return b.Problem(f)
}

// TestNonFiniteInputRejected: NaN or +Inf in any floating-point input
// fails at the boundary with the field named, before any iteration runs;
// the same request with a finite value solves.
func TestNonFiniteInputRejected(t *testing.T) {
	const n = 40
	plate := func(sp repro.PlateSpec) repro.Request {
		sp.Rows, sp.Cols = 6, 6
		return repro.Request{Plate: &sp}
	}
	system := func(sy repro.SystemSpec) repro.Request {
		sy.N = n
		sy.I, sy.J, sy.V = laplacian(n, 2)
		if sy.F == nil && sy.Fs == nil {
			sy.F = rhs(n, 1)
		}
		return repro.Request{System: &sy}
	}
	cases := []struct {
		field string
		ok    float64 // a finite value that solves
		build func(x float64) (repro.Request, error)
	}{
		{"system.v", 2, func(x float64) (repro.Request, error) {
			req := system(repro.SystemSpec{})
			req.System.V[0] = x
			return req, nil
		}},
		{"system.f", 1, func(x float64) (repro.Request, error) {
			return system(repro.SystemSpec{F: rhs(n, x)}), nil
		}},
		{"system.fs[1]", 1, func(x float64) (repro.Request, error) {
			return system(repro.SystemSpec{Fs: [][]float64{rhs(n, 1), rhs(n, x)}}), nil
		}},
		{"plate.e", 1, func(x float64) (repro.Request, error) {
			return plate(repro.PlateSpec{E: x, Nu: 0.3, T: 1}), nil
		}},
		{"plate.nu", 0.3, func(x float64) (repro.Request, error) {
			return plate(repro.PlateSpec{E: 1, Nu: x, T: 1}), nil
		}},
		{"plate.t", 1, func(x float64) (repro.Request, error) {
			return plate(repro.PlateSpec{E: 1, Nu: 0.3, T: x}), nil
		}},
		{"plate.traction", 1, func(x float64) (repro.Request, error) {
			return plate(repro.PlateSpec{Traction: x}), nil
		}},
		{"plate.tractions", 1, func(x float64) (repro.Request, error) {
			return plate(repro.PlateSpec{Tractions: []float64{1, x}}), nil
		}},
		{"solver.tol", 1e-6, func(x float64) (repro.Request, error) {
			req := plate(repro.PlateSpec{})
			req.Solver.Tol = x
			return req, nil
		}},
		{"solver.rel_residual_tol", 1e-6, func(x float64) (repro.Request, error) {
			req := plate(repro.PlateSpec{})
			req.Solver.RelResidualTol = x
			return req, nil
		}},
		{"solver.omega", 1, func(x float64) (repro.Request, error) {
			req := plate(repro.PlateSpec{})
			req.Solver = repro.SolverSpec{M: 1, Splitting: "ssor-natural", Omega: x}
			return req, nil
		}},
		{"prebuilt rhs", 1, func(x float64) (repro.Request, error) {
			p, err := builderProblem(n, 2, rhs(n, x))
			return repro.Request{Problem: p}, err
		}},
		{"prebuilt rhs 1", 1, func(x float64) (repro.Request, error) {
			p, err := builderProblem(n, 2, rhs(n, 1))
			return repro.Request{Problem: p, Fs: [][]float64{rhs(n, 1), rhs(n, x)}}, err
		}},
		{"matrix", 2, func(x float64) (repro.Request, error) {
			p, err := builderProblem(n, x, rhs(n, 1))
			return repro.Request{Problem: p}, err
		}},
	}
	local := repro.NewLocal(repro.LocalConfig{Workers: 1})
	defer local.Close()
	ctx := context.Background()
	for _, c := range cases {
		req, err := c.build(c.ok)
		if err != nil {
			t.Fatalf("%s: finite control rejected: %v", c.field, err)
		}
		res, err := local.Solve(ctx, req)
		if err != nil || !res.Converged {
			t.Fatalf("%s: finite control failed: converged %v, %v", c.field, res.Converged, err)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1)} {
			var res repro.JobResult
			req, err := c.build(x)
			if err == nil {
				res, err = local.Solve(ctx, req)
			}
			if err == nil || !strings.Contains(err.Error(), c.field+" holds a non-finite value") {
				t.Fatalf("%s = %g: got %v, want a non-finite error naming the field", c.field, x, err)
			}
			if res.Iterations != 0 {
				t.Fatalf("%s = %g: %d iterations ran before the rejection", c.field, x, res.Iterations)
			}
		}
	}

	// repro.Solve hands the engine a full Config instead of a SolverSpec.
	p, err := repro.NewPlateProblem(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		field string
		ok    float64
		cfg   func(x float64) repro.Config
	}{
		{"config tol", 1e-6, func(x float64) repro.Config { return repro.Config{Tol: x} }},
		{"config rel_residual_tol", 1e-6, func(x float64) repro.Config { return repro.Config{RelResidualTol: x} }},
		{"config omega", 1, func(x float64) repro.Config {
			return repro.Config{M: 1, Splitting: repro.SSORNatural, Omega: x, Tol: 1e-6}
		}},
	}
	for _, c := range configs {
		if res, err := repro.Solve(p, c.cfg(c.ok)); err != nil || !res.Stats.Converged {
			t.Fatalf("%s: finite control failed: %v", c.field, err)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1)} {
			res, err := repro.Solve(p, c.cfg(x))
			if err == nil || !strings.Contains(err.Error(), c.field+" holds a non-finite value") {
				t.Fatalf("%s = %g: got %v, want a non-finite error naming the field", c.field, x, err)
			}
			if res.Stats.Iterations != 0 {
				t.Fatalf("%s = %g: %d iterations ran before the rejection", c.field, x, res.Stats.Iterations)
			}
		}
	}
}
