package eigen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cg"
	"repro/internal/fem"
	"repro/internal/model"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/splitting"
)

// lap1DEigs returns the exact extreme eigenvalues of Laplacian1D(n).
func lap1DEigs(n int) (lo, hi float64) {
	lo = 2 - 2*math.Cos(math.Pi/float64(n+1))
	hi = 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	return
}

func TestSturmCountKnown(t *testing.T) {
	// diag(1, 2, 3) with zero offdiagonal: eigenvalues 1, 2, 3.
	d := []float64{1, 2, 3}
	e := []float64{0, 0}
	cases := []struct {
		x    float64
		want int
	}{
		{0.5, 0}, {1.5, 1}, {2.5, 2}, {3.5, 3},
	}
	for _, c := range cases {
		if got := SturmCount(d, e, c.x); got != c.want {
			t.Fatalf("SturmCount(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestTridiagExtremesLaplacian(t *testing.T) {
	n := 50
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = 2
	}
	for i := range e {
		e[i] = -1
	}
	wantLo, wantHi := lap1DEigs(n)
	lo, hi, err := TridiagExtremes(d, e)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-wantLo) > 1e-10 || math.Abs(hi-wantHi) > 1e-10 {
		t.Fatalf("extremes (%v, %v), want (%v, %v)", lo, hi, wantLo, wantHi)
	}
}

func TestTridiagExtremesErrors(t *testing.T) {
	if _, _, err := TridiagExtremes(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, _, err := TridiagExtremes([]float64{1, 2}, []float64{}); err == nil {
		t.Fatal("mismatched offdiag accepted")
	}
}

// Property: Sturm count is monotone nondecreasing in x and totals n.
func TestSturmCountMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64() * 3
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		prev := 0
		for x := -20.0; x <= 20; x += 0.5 {
			c := SturmCount(d, e, x)
			if c < prev || c > n {
				return false
			}
			prev = c
		}
		return prev == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCondFromCGStatsLaplacian(t *testing.T) {
	n := 60
	k := model.Laplacian1D(n)
	f := model.RandomVec(rand.New(rand.NewSource(7)), n)
	_, st, err := cg.Solve(k, f, nil, cg.Options{RelResidualTol: 1e-13, MaxIter: 20 * n})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, kappa, err := CondFromCGStats(st)
	if err != nil {
		t.Fatal(err)
	}
	wantLo, wantHi := lap1DEigs(n)
	wantKappa := wantHi / wantLo
	if math.Abs(hi-wantHi) > 1e-3*wantHi {
		t.Fatalf("λmax = %v, want %v", hi, wantHi)
	}
	if math.Abs(lo-wantLo) > 1e-2*wantLo {
		t.Fatalf("λmin = %v, want %v", lo, wantLo)
	}
	if math.Abs(kappa-wantKappa) > 0.05*wantKappa {
		t.Fatalf("κ = %v, want %v", kappa, wantKappa)
	}
}

func TestCondFromCGStatsEmpty(t *testing.T) {
	if _, _, _, err := CondFromCGStats(cg.Stats{}); err == nil {
		t.Fatal("empty stats accepted")
	}
}

func TestEstimateIntervalSSORInUnitRange(t *testing.T) {
	// SSOR(ω=1) on SPD: spec(P⁻¹K) ⊆ (0, 1].
	plate, err := fem.NewPlate(6, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := splitting.NewSixColorSSOR(plate.KColored, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	iv, err := EstimateInterval(mc, 0.02, 11)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo <= 0 || iv.Hi > 1.1 {
		t.Fatalf("SSOR interval [%g, %g] outside expectations", iv.Lo, iv.Hi)
	}
	if iv.Lo >= iv.Hi {
		t.Fatalf("degenerate interval [%g, %g]", iv.Lo, iv.Hi)
	}
}

func TestEstimateIntervalJacobiLaplacian(t *testing.T) {
	// Jacobi on 1-D Laplacian: spec(D⁻¹K) = (2−2cos θ)/2 ∈ (0, 2).
	n := 40
	k := model.Laplacian1D(n)
	j, _ := splitting.NewJacobi(k)
	iv, err := EstimateInterval(j, 0, 13)
	if err != nil {
		t.Fatal(err)
	}
	wantLo, wantHi := lap1DEigs(n)
	wantLo /= 2
	wantHi /= 2
	if math.Abs(iv.Hi-wantHi) > 1e-4 {
		t.Fatalf("Hi = %v, want %v", iv.Hi, wantHi)
	}
	if math.Abs(iv.Lo-wantLo) > 1e-4 {
		t.Fatalf("Lo = %v, want %v", iv.Lo, wantLo)
	}
}

func TestEstimateIntervalErrors(t *testing.T) {
	k := model.Laplacian1D(5)
	j, _ := splitting.NewJacobi(k)
	if _, err := EstimateInterval(j, -0.1, 1); err == nil {
		t.Fatal("negative pad accepted")
	}
}

// The §2.1 claim, measured: κ(M_m⁻¹K) decreases as m grows (parametrized),
// with the condition-number estimate coming from actual PCG runs.
func TestConditionDecreasesWithM(t *testing.T) {
	plate, err := fem.NewPlate(8, 8, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kc := plate.KColored
	rhs := plate.ColoredRHS()
	mc, err := splitting.NewSixColorSSOR(kc, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	iv, err := EstimateInterval(mc, 0.02, 17)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, m := range []int{1, 2, 4} {
		a, err := poly.LeastSquares(m, iv.Lo, iv.Hi)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := precond.NewMStep(mc, a)
		_, st, err := cg.Solve(kc, rhs, p, cg.Options{RelResidualTol: 1e-12, MaxIter: 2000})
		if err != nil {
			t.Fatal(err)
		}
		_, _, kappa, err := CondFromCGStats(st)
		if err != nil {
			t.Fatal(err)
		}
		if kappa >= prev {
			t.Fatalf("m=%d: κ=%g did not improve on %g", m, kappa, prev)
		}
		prev = kappa
	}
}
