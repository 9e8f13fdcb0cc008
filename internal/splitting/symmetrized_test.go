package splitting

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/la"
	"repro/internal/model"
	"repro/internal/sparse"
)

// symEigenvalues returns the eigenvalues of a symmetric dense matrix,
// ascending, by cyclic Jacobi rotations (test sizes only).
func symEigenvalues(a *la.Matrix) []float64 {
	a = a.Clone()
	n := a.Rows
	for sweep := 0; sweep < 100; sweep++ {
		var off, diag float64
		for i := 0; i < n; i++ {
			diag += a.At(i, i) * a.At(i, i)
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if off <= 1e-32*diag {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if apq == 0 {
					continue
				}
				theta := (a.At(q, q) - a.At(p, p)) / (2 * apq)
				tan := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(tan*tan+1)
				s := tan * c
				for k := 0; k < n; k++ { // columns p and q
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ { // rows p and q
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
			}
		}
	}
	ev := make([]float64, n)
	for i := range ev {
		ev[i] = a.At(i, i)
	}
	sort.Float64s(ev)
	return ev
}

// symmetrizedCases lists splittings of every kind: multicolor SSOR at
// ω ∈ {1, 1.5} on 6² and 8² plates, and natural SSOR at ω ∈ {1, 1.3} and
// Jacobi on a random SPD matrix and a Laplacian.
func symmetrizedCases(t *testing.T) map[string]Splitting {
	t.Helper()
	cases := map[string]Splitting{}
	add := func(name string, sp Splitting, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases[name] = sp
	}
	for _, size := range []int{6, 8} {
		k, start, _ := coloredPlate(t, size, size)
		for _, omega := range []float64{1, 1.5} {
			sp, err := NewMulticolorSSOR(k, start, omega)
			add(fmt.Sprintf("multicolor(ω=%g)/plate%d", omega, size), sp, err)
		}
	}
	mats := map[string]*sparse.CSR{
		"randomspd-40": model.RandomSPD(rand.New(rand.NewSource(3)), 40, 4),
		"poisson-6x7":  model.Poisson2D(6, 7),
	}
	for name, k := range mats {
		for _, omega := range []float64{1, 1.3} {
			sp, err := NewNaturalSSOR(k, omega)
			add(fmt.Sprintf("natural(ω=%g)/%s", omega, name), sp, err)
		}
		sp, err := NewJacobi(k)
		add("jacobi/"+name, sp, err)
	}
	return cases
}

// K̂ = W⁻¹KW⁻ᵀ is symmetric and has the spectrum of P⁻¹K. The reference
// spectrum comes from Step alone: column j of P⁻¹ is one step from r̂ = 0
// with r = e_j, and with K = RRᵀ (Cholesky), P⁻¹K is similar to the
// symmetric RᵀP⁻¹R.
func TestMulSymmetrizedIsospectral(t *testing.T) {
	for name, sp := range symmetrizedCases(t) {
		n := sp.N()
		khat, pinv := la.NewMatrix(n, n), la.NewMatrix(n, n)
		e, col, work := make([]float64, n), make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			e[j] = 1
			sp.MulSymmetrized(col, e, work)
			for i, v := range col {
				khat.Set(i, j, v)
			}
			clear(col)
			sp.Step(col, e, 1)
			for i, v := range col {
				pinv.Set(i, j, v)
			}
			e[j] = 0
		}
		var scale float64
		for _, v := range khat.Data {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if d := math.Abs(khat.At(i, j) - khat.At(j, i)); d > 1e-12*scale {
					t.Fatalf("%s: K̂ asymmetric at (%d,%d) by %g (scale %g)", name, i, j, d, scale)
				}
			}
		}
		for i := 0; i < n; i++ { // symmetrize both against round-off
			for j := 0; j < i; j++ {
				v := (khat.At(i, j) + khat.At(j, i)) / 2
				khat.Set(i, j, v)
				khat.Set(j, i, v)
				v = (pinv.At(i, j) + pinv.At(j, i)) / 2
				pinv.Set(i, j, v)
				pinv.Set(j, i, v)
			}
		}
		r, err := la.Cholesky(la.FromRows(sp.Matrix().Dense()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := symEigenvalues(khat), symEigenvalues(r.T().Mul(pinv).Mul(r))
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-9*math.Abs(want[i]) {
				t.Fatalf("%s: eigenvalue %d of K̂ is %.15g, of P⁻¹K %.15g", name, i, got[i], want[i])
			}
		}
		if got[0] <= 0 {
			t.Fatalf("%s: K̂ not positive definite: λmin %g", name, got[0])
		}
	}
}

// MulSymmetrized reads nothing but its arguments and the matrix: repeated
// calls with dirty scratch give the same bits, and it allocates nothing.
func TestMulSymmetrizedStateless(t *testing.T) {
	for name, sp := range symmetrizedCases(t) {
		n := sp.N()
		x := model.RandomVec(rand.New(rand.NewSource(7)), n)
		a, b, work := make([]float64, n), make([]float64, n), make([]float64, n)
		sp.MulSymmetrized(a, x, work)
		for i := range work {
			work[i] = math.NaN()
		}
		if allocs := testing.AllocsPerRun(3, func() { sp.MulSymmetrized(b, x, work) }); allocs != 0 {
			t.Errorf("%s: %g allocations per product", name, allocs)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: entry %d differs across calls: %g vs %g", name, i, a[i], b[i])
			}
		}
	}
}
