package eigen

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cg"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
)

// pcgEstimate is the estimator EstimateInterval replaced, kept as the
// reference: PCG on K with the one-step preconditioner P from right-hand
// side f, run to relative residual 1e-6, with λ₁ and λₙ read off the PCG
// Lanczos tridiagonal and padded. EstimateInterval used the seeded vector
// (seeded) as f.
func pcgEstimate(t *testing.T, sp splitting.Splitting, pad float64, f []float64) Interval {
	t.Helper()
	p, err := precond.NewMStep(sp, poly.Ones(1))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := cg.Solve(sp.Matrix(), f, p, cg.Options{RelResidualTol: 1e-6, MaxIter: 3000})
	if err != nil && !errors.Is(err, cg.ErrMaxIterations) {
		t.Fatal(err)
	}
	lo, hi, _, err := CondFromCGStats(st)
	if err != nil {
		t.Fatal(err)
	}
	return Interval{Lo: lo * (1 - pad), Hi: hi * (1 + pad)}
}

// seeded is the N(0, 1) vector EstimateInterval starts from.
func seeded(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	return f
}

// mulW returns W·f for the factor W of P = WWᵀ that MulSymmetrized
// symmetrizes with: D^½ for Jacobi, (D+ωL)·D^−½/√(ω(2−ω)) for SSOR(ω),
// L the strict lower triangle of K. PCG with P from W·f is, in exact
// arithmetic, the same Lanczos process as CG on K̂ from f.
func mulW(k *sparse.CSR, omega float64, f []float64) []float64 {
	d := k.Diag()
	wf := make([]float64, len(f))
	for i := range f {
		if omega == 0 {
			wf[i] = math.Sqrt(d[i]) * f[i]
			continue
		}
		s := math.Sqrt(d[i]) * f[i]
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			if j := k.ColIdx[p]; j < i {
				s += omega * k.Val[p] * f[j] / math.Sqrt(d[j])
			}
		}
		wf[i] = s / math.Sqrt(omega*(2-omega))
	}
	return wf
}

// The settled Lanczos estimate on K̂ lands within 5e-3 relative of the
// PCG-with-P estimate on both ends, far inside the 2% pad: on square plates
// 6²–100² and an L-shaped domain, each with its multicolor SSOR splitting.
// Their spectra are resolved long before either run stops, so the two
// estimates agree although they start from different vectors.
func TestEstimateIntervalMatchesPCGEstimate(t *testing.T) {
	type tc struct {
		name string
		sp   splitting.Splitting
	}
	var cases []tc
	plates := []int{6, 10, 16, 22, 32, 40, 52, 64, 72, 90, 100}
	if testing.Short() {
		plates = []int{6, 10, 16}
	}
	for _, n := range plates {
		p, err := fem.NewPlate(n, n, fem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := splitting.NewSixColorSSOR(p.KColored, p.Ordering.GroupStart[:])
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{fmt.Sprintf("plate %d²", n), sp})
	}
	d, err := fem.NewDomainProblem(mesh.LShapedDomain(mesh.NewGrid(17, 17)), nil, fem.Material{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := splitting.NewMulticolorSSOR(d.KColored, d.GroupStart, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tc{"L-shape 17²", l})
	for _, c := range cases {
		for _, seed := range []int64{1, 2} {
			checkAgainstPCG(t, c.name, c.sp, seed, seeded(c.sp.N(), seed))
		}
	}
}

// On a strictly diagonally dominant random SPD matrix, P⁻¹K is so well
// conditioned that both estimators stop on the relative-residual backstop
// after 6–12 iterations, before λmin has converged: there the interval
// depends on the start vector, and from the same seeded vector the two
// differed by up to 1.5%. So the PCG estimate here starts from W·f, where it
// is the same Lanczos process as CG on K̂ from f, and the two must agree to
// 5e-3 (they agree to rounding). Jacobi and natural SSOR at ω = 1 and 1.3.
func TestEstimateIntervalMatchesPCGEstimateRandomSPD(t *testing.T) {
	k := model.RandomSPD(rand.New(rand.NewSource(5)), 400, 6)
	for _, omega := range []float64{0, 1, 1.3} {
		var sp splitting.Splitting
		var err error
		if omega == 0 {
			sp, err = splitting.NewJacobi(k)
		} else {
			sp, err = splitting.NewNaturalSSOR(k, omega)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			checkAgainstPCG(t, "randomspd-400 "+sp.Name(), sp, seed, mulW(k, omega, seeded(k.Rows, seed)))
		}
	}
}

// checkAgainstPCG compares EstimateInterval(sp, 0.02, seed) with the
// PCG-with-P estimate from right-hand side f.
func checkAgainstPCG(t *testing.T, name string, sp splitting.Splitting, seed int64, f []float64) {
	t.Helper()
	got, err := EstimateInterval(sp, 0.02, seed)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	want := pcgEstimate(t, sp, 0.02, f)
	dlo := math.Abs(got.Lo-want.Lo) / want.Lo
	dhi := math.Abs(got.Hi-want.Hi) / want.Hi
	if dlo > 5e-3 || dhi > 5e-3 {
		t.Errorf("%s seed %d: [%.6g, %.6g] vs PCG estimate [%.6g, %.6g] (Lo off %.2g, Hi off %.2g relative)",
			name, seed, got.Lo, got.Hi, want.Lo, want.Hi, dlo, dhi)
	}
}

// withDeadline fails the test if fn has not returned within d.
func withDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not return within %v", d)
	}
}

// Eigenvalues large next to their spread: 1e-13 of the Gershgorin width is
// below one ulp of them, so bisection must stop once the bracket's midpoint
// rounds to an endpoint.
func TestTridiagExtremesLargeShift(t *testing.T) {
	withDeadline(t, 5*time.Second, func() {
		lo, hi, err := TridiagExtremes([]float64{1e6, 1e6 + 1}, []float64{1})
		if err != nil {
			t.Error(err)
			return
		}
		// Exact: 1e6 + (1 ∓ √5)/2.
		wantLo, wantHi := 1e6+(1-math.Sqrt(5))/2, 1e6+(1+math.Sqrt(5))/2
		if math.Abs(lo-wantLo) > 1e-9 || math.Abs(hi-wantHi) > 1e-9 {
			t.Errorf("extremes [%.12g, %.12g], want [%.12g, %.12g]", lo, hi, wantLo, wantHi)
		}
	})
}
