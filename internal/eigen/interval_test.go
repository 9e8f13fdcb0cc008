package eigen

import (
	"fmt"
	"testing"

	"repro/internal/fem"
	"repro/internal/la"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/sparse"
	"repro/internal/splitting"
)

// csrFromRows builds a CSR matrix from dense rows.
func csrFromRows(rows [][]float64) *sparse.CSR {
	c := sparse.NewCOO(len(rows), len(rows))
	for i, row := range rows {
		for j, v := range row {
			c.Add(i, j, v)
		}
	}
	return c.ToCSR()
}

// A matrix that is not positive definite must be rejected at the estimate,
// whichever way PCG notices: a breakdown, or a non-positive Ritz value.
func TestEstimateIntervalRejectsNonSPD(t *testing.T) {
	cases := []struct {
		name   string
		rows   [][]float64
		lo, hi float64 // exact extremes of D⁻¹K for the SPD controls
	}{
		{name: "indefinite 2x2", rows: [][]float64{{1, 2}, {2, 1}}},
		{name: "indefinite 3x3", rows: [][]float64{{2, 0, 3}, {0, 1, 0}, {3, 0, 2}}},
		{name: "semidefinite 2x2", rows: [][]float64{{1, 1}, {1, 1}}},
		{name: "spd control 2x2", rows: [][]float64{{2, 1}, {1, 2}}, lo: 0.5, hi: 1.5},
		{name: "spd control 3x3", rows: [][]float64{{2, 0, 1}, {0, 1, 0}, {1, 0, 2}}, lo: 0.5, hi: 1.5},
	}
	for _, c := range cases {
		j, err := splitting.NewJacobi(csrFromRows(c.rows))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			iv, err := EstimateInterval(j, 0.02, seed)
			if c.hi == 0 {
				if err == nil {
					t.Errorf("%s seed %d: accepted with interval [%g, %g]", c.name, seed, iv.Lo, iv.Hi)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s seed %d: %v", c.name, seed, err)
			} else if iv.Lo > c.lo || iv.Hi < c.hi {
				t.Errorf("%s seed %d: [%g, %g] misses [%g, %g]", c.name, seed, iv.Lo, iv.Hi, c.lo, c.hi)
			}
		}
	}
}

// denseSplitting forms K = a, the matrix sp splits, and the splitting
// matrix P densely. Column j of P⁻¹ is one step from r̂ = 0 with r = e_j;
// P is its inverse, symmetrized against round-off.
func denseSplitting(t *testing.T, a *sparse.CSR, sp splitting.Splitting) (k, p *la.Matrix) {
	t.Helper()
	n := sp.N()
	k = la.FromRows(a.Dense())
	pinv := la.NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		col := make([]float64, n)
		e[j] = 1
		sp.Step(col, e, 1)
		e[j] = 0
		for i, v := range col {
			pinv.Set(i, j, v)
		}
	}
	lu, err := la.FactorLU(pinv)
	if err != nil {
		t.Fatal(err)
	}
	p = la.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		for i, v := range lu.Solve(e) {
			p.Add(i, j, v/2)
			p.Add(j, i, v/2)
		}
		e[j] = 0
	}
	return k, p
}

// The padded interval contains spec(P⁻¹K), as Interval promises: both
// K − Lo·P and Hi·P − K are positive definite. Checked against dense P for
// each splitting kind, including ω ≠ 1.
func TestEstimateIntervalContainsSpectrum(t *testing.T) {
	type build struct {
		k  *sparse.CSR
		mk func(k *sparse.CSR) (splitting.Splitting, error)
	}
	cases := map[string]build{
		"jacobi/laplacian1d-40": {model.Laplacian1D(40), func(k *sparse.CSR) (splitting.Splitting, error) {
			return splitting.NewJacobi(k)
		}},
	}
	for _, size := range []int{6, 8} {
		plate, err := fem.NewPlate(size, size, fem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, omega := range []float64{1, 1.5} {
			cases[fmt.Sprintf("multicolor(ω=%g)/plate%d", omega, size)] = build{plate.KColored, func(k *sparse.CSR) (splitting.Splitting, error) {
				return splitting.NewMulticolorSSOR(k, plate.Ordering.GroupStart[:], omega)
			}}
			cases[fmt.Sprintf("natural(ω=%g)/plate%d", omega, size)] = build{plate.K, func(k *sparse.CSR) (splitting.Splitting, error) {
				return splitting.NewNaturalSSOR(k, omega)
			}}
		}
	}
	for name, c := range cases {
		sp, err := c.mk(c.k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k, p := denseSplitting(t, c.k, sp)
		for seed := int64(1); seed <= 3; seed++ {
			iv, err := EstimateInterval(sp, 0.02, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			n := sp.N()
			below, above := la.NewMatrix(n, n), la.NewMatrix(n, n)
			for i := range k.Data {
				below.Data[i] = k.Data[i] - iv.Lo*p.Data[i]
				above.Data[i] = iv.Hi*p.Data[i] - k.Data[i]
			}
			if _, err := la.Cholesky(below); err != nil {
				t.Errorf("%s seed %d: K − %g·P not positive definite: Lo above λmin", name, seed, iv.Lo)
			}
			if _, err := la.Cholesky(above); err != nil {
				t.Errorf("%s seed %d: %g·P − K not positive definite: Hi below λmax", name, seed, iv.Hi)
			}
		}
	}
}

// The SSOR bound the least-squares coefficients fit on holds: for an SSOR
// splitting at ω = 1, spec(P⁻¹K) ⊂ [1e-9, 1] with λmax = 1 to within 1e-6,
// because P − K = L·D⁻¹·U is positive semidefinite and singular. So
// (1 + 1e-6)·P − K and K − 1e-9·P are positive definite and
// (1 − 1e-6)·P − K is not. At ω = 1.5, P − K is positive definite, so λmax
// sits below 1 − 1e-6. Checked against dense P for multicolor and natural
// SSOR on square plates and an L-shaped domain.
func TestSSORSpectrumBound(t *testing.T) {
	type system struct {
		name       string
		k, colored *sparse.CSR
		groups     []int
	}
	var systems []system
	for _, size := range []int{6, 8, 10} {
		plate, err := fem.NewPlate(size, size, fem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{fmt.Sprintf("plate%d", size), plate.K, plate.KColored, plate.Ordering.GroupStart[:]})
	}
	d, err := fem.NewDomainProblem(mesh.LShapedDomain(mesh.NewGrid(9, 9)), nil, fem.Material{})
	if err != nil {
		t.Fatal(err)
	}
	systems = append(systems, system{"L-shape9", d.K, d.KColored, d.GroupStart})

	// pd reports whether a·P + b·K is positive definite.
	pd := func(k, p *la.Matrix, a, b float64) bool {
		m := la.NewMatrix(k.Rows, k.Cols)
		for i := range m.Data {
			m.Data[i] = a*p.Data[i] + b*k.Data[i]
		}
		_, err := la.Cholesky(m)
		return err == nil
	}
	for _, sys := range systems {
		for _, omega := range []float64{1, 1.5} {
			mc, err := splitting.NewMulticolorSSOR(sys.colored, sys.groups, omega)
			if err != nil {
				t.Fatal(err)
			}
			nat, err := splitting.NewNaturalSSOR(sys.k, omega)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				k  *sparse.CSR
				sp splitting.Splitting
			}{{sys.colored, mc}, {sys.k, nat}} {
				name := fmt.Sprintf("%s ω=%g %s", c.sp.Name(), omega, sys.name)
				k, p := denseSplitting(t, c.k, c.sp)
				if omega != 1 {
					if !pd(k, p, 1-1e-6, -1) {
						t.Errorf("%s: (1 − 1e-6)·P − K not positive definite: λmax ≥ 1 − 1e-6", name)
					}
					continue
				}
				if !pd(k, p, 1+1e-6, -1) {
					t.Errorf("%s: (1 + 1e-6)·P − K not positive definite: λmax above 1", name)
				}
				if pd(k, p, 1-1e-6, -1) {
					t.Errorf("%s: (1 − 1e-6)·P − K positive definite: λmax below 1 − 1e-6", name)
				}
				if !pd(k, p, -1e-9, 1) {
					t.Errorf("%s: K − 1e-9·P not positive definite: λmin below 1e-9", name)
				}
			}
		}
	}
}
