package cg

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
)

func blockFixture(t *testing.T, s int) (*sparse.CSR, *vec.Multi, precond.Preconditioner) {
	t.Helper()
	k := model.Poisson2D(15, 15)
	rng := rand.New(rand.NewSource(11))
	f := vec.NewMulti(k.Rows, s)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	j, err := splitting.NewJacobi(k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := precond.NewMStep(j, poly.Ones(3))
	if err != nil {
		t.Fatal(err)
	}
	return k, f, p
}

// TestSolveBlockOneSpMMPerIteration: the acceptance criterion — Stats
// counts exactly one SpMM per outer iteration, regardless of batch width.
func TestSolveBlockOneSpMMPerIteration(t *testing.T) {
	k, f, p := blockFixture(t, 8)
	st, err := solveBlockFresh(k, f, p, Options{Tol: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpMMs != st.Iterations {
		t.Fatalf("SpMMs = %d, Iterations = %d: want exactly one SpMM per iteration", st.SpMMs, st.Iterations)
	}
	if st.Iterations == 0 {
		t.Fatal("expected at least one iteration")
	}
	// The block preconditioner is applied once before the loop and once per
	// non-final iteration (converged columns skip the trailing apply).
	if st.BlockPrecondApps > st.Iterations+1 {
		t.Fatalf("BlockPrecondApps = %d > iterations+1 = %d", st.BlockPrecondApps, st.Iterations+1)
	}
}

func solveBlockFresh(k *sparse.CSR, f *vec.Multi, p precond.Preconditioner, opt Options) (BlockStats, error) {
	u := vec.NewMulti(k.Rows, f.S)
	return SolveBlockInto(u, k, f, p, opt, nil)
}

// TestSolveBlockDeflation: a zero column converges on the spot; an easy
// column (the solution one step away is not achievable here, so instead use
// wildly different tolerances via scaling) deflates earlier than a hard
// one, and per-column iteration counts reflect it.
func TestSolveBlockDeflation(t *testing.T) {
	k := model.Poisson2D(12, 12)
	n := k.Rows
	f := vec.NewMulti(n, 3)
	// Column 0: zero RHS — converged at iteration 0.
	// Column 1: a smooth RHS.
	// Column 2: a rough RHS (slower to converge for CG without precond).
	for i := 0; i < n; i++ {
		f.Col(1)[i] = 1
		f.Col(2)[i] = float64((i%7)-3) * math.Pow(-1, float64(i%2))
	}
	u := vec.NewMulti(n, 3)
	st, err := SolveBlockInto(u, k, f, nil, Options{RelResidualTol: 1e-10, MaxIter: 5000}, nil)
	if err != nil {
		t.Fatalf("block solve: %v", err)
	}
	if !st.Converged {
		t.Fatal("expected full convergence")
	}
	if st.Cols[0].Iterations != 0 || !st.Cols[0].Converged {
		t.Fatalf("zero column should converge instantly, got %d iterations", st.Cols[0].Iterations)
	}
	for i := 0; i < n; i++ {
		if u.Col(0)[i] != 0 {
			t.Fatalf("zero column solution nonzero at %d", i)
		}
	}
	if st.Cols[1].Iterations > st.Iterations || st.Cols[2].Iterations > st.Iterations {
		t.Fatal("per-column iterations exceed outer iterations")
	}
	if st.Iterations != max(st.Cols[1].Iterations, st.Cols[2].Iterations) {
		t.Fatalf("outer iterations %d != max per-column (%d, %d)",
			st.Iterations, st.Cols[1].Iterations, st.Cols[2].Iterations)
	}
	// Deflation must not corrupt the surviving columns: check residuals.
	for j := 1; j < 3; j++ {
		r := make([]float64, n)
		k.MulVecTo(r, u.Col(j))
		vec.Sub(r, f.Col(j), r)
		if rel := vec.Norm2(r) / vec.Norm2(f.Col(j)); rel > 1e-9 {
			t.Fatalf("col %d true residual %g after deflation", j, rel)
		}
	}
}

// TestSolveBlockMaxIter: columns still active at the iteration limit report
// ErrMaxIterations, per column and joined.
func TestSolveBlockMaxIter(t *testing.T) {
	k, f, p := blockFixture(t, 3)
	u := vec.NewMulti(k.Rows, 3)
	st, err := SolveBlockInto(u, k, f, p, Options{Tol: 1e-12, MaxIter: 2}, nil)
	if err == nil {
		t.Fatal("expected iteration-limit error")
	}
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("want ErrMaxIterations, got %v", err)
	}
	if st.Converged {
		t.Fatal("stats claim convergence at MaxIter=2")
	}
	for j := 0; j < 3; j++ {
		if !errors.Is(st.ColErrs[j], ErrMaxIterations) {
			t.Fatalf("col %d error = %v", j, st.ColErrs[j])
		}
	}
}

// TestSolveBlockBreakdownColumnIsolated: an indefinite system breaks down,
// but per-column errors identify it without aborting the whole batch
// machinery (all columns here share the bad matrix, so all report it).
func TestSolveBlockBreakdownIndefinite(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1) // indefinite
	k := c.ToCSR()
	f := vec.MultiFromCols([][]float64{{1, 1}, {2, -1}})
	u := vec.NewMulti(2, 2)
	st, err := SolveBlockInto(u, k, f, nil, Options{Tol: 1e-10}, nil)
	if err == nil {
		t.Fatal("expected breakdown error")
	}
	if !errors.Is(err, ErrBreakdownMatrix) {
		t.Fatalf("want ErrBreakdownMatrix, got %v", err)
	}
	found := false
	for j := range st.ColErrs {
		if errors.Is(st.ColErrs[j], ErrBreakdownMatrix) {
			found = true
		}
	}
	if !found {
		t.Fatal("no per-column breakdown recorded")
	}
}

// TestSolveBlockInputValidation covers the argument checks.
func TestSolveBlockInputValidation(t *testing.T) {
	k := model.Laplacian1D(4)
	f := vec.NewMulti(4, 2)
	u := vec.NewMulti(4, 2)
	if _, err := SolveBlockInto(u, k, vec.NewMulti(3, 2), nil, Options{Tol: 1e-8}, nil); err == nil {
		t.Fatal("rhs row mismatch accepted")
	}
	if _, err := SolveBlockInto(vec.NewMulti(4, 1), k, f, nil, Options{Tol: 1e-8}, nil); err == nil {
		t.Fatal("iterate shape mismatch accepted")
	}
	if _, err := SolveBlockInto(u, k, f, nil, Options{}, nil); err == nil {
		t.Fatal("no stopping test accepted")
	}
	if _, err := SolveBlockInto(u, k, vec.NewMulti(4, 0), nil, Options{Tol: 1e-8}, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestSolveBlockWorkspaceReuseAndParallel: a warm workspace must be
// reusable across shapes, and the parallel kernels must reproduce the
// serial solution.
func TestSolveBlockWorkspaceReuseAndParallel(t *testing.T) {
	k, f, p := blockFixture(t, 4)
	opt := Options{Tol: 1e-9, MaxIter: 5000}
	ws := NewWorkspace(0)

	u1 := vec.NewMulti(k.Rows, 4)
	if _, err := SolveBlockInto(u1, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	// Same workspace, different (smaller) shape.
	k2 := model.Laplacian1D(30)
	f2 := vec.NewMulti(30, 2)
	f2.Col(0)[15] = 1
	f2.Col(1)[3] = -2
	u2 := vec.NewMulti(30, 2)
	if _, err := SolveBlockInto(u2, k2, f2, nil, Options{Tol: 1e-10}, ws); err != nil {
		t.Fatal(err)
	}
	// Re-solve the first problem on the warm workspace: identical result.
	u3 := vec.NewMulti(k.Rows, 4)
	if _, err := SolveBlockInto(u3, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	for i := range u1.Data {
		if u1.Data[i] != u3.Data[i] {
			t.Fatalf("workspace reuse changed the solution at %d", i)
		}
	}
	// Parallel kernels: same solution within roundoff (dot products are
	// chunk-ordered, so tiny reassociation differences are possible only
	// above the parallel threshold; this system is below it, so exact).
	opt.Workers = 4
	u4 := vec.NewMulti(k.Rows, 4)
	if _, err := SolveBlockInto(u4, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	for i := range u1.Data {
		if math.Abs(u1.Data[i]-u4.Data[i]) > 1e-10 {
			t.Fatalf("parallel solve differs at %d: %g vs %g", i, u1.Data[i], u4.Data[i])
		}
	}
}

// TestSolveBlockSteadyStateAllocFree: with a warm workspace, serial
// kernels, and a preheated batch shape, a block solve must not allocate.
func TestSolveBlockSteadyStateAllocFree(t *testing.T) {
	k, f, p := blockFixture(t, 4)
	opt := Options{Tol: 1e-9, MaxIter: 5000}
	ws := NewWorkspace(k.Rows)
	u := vec.NewMulti(k.Rows, 4)
	if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state block solve allocated %.1f times per run", allocs)
	}
}

// TestSolveBlockMixedRetirement: columns that retire early — one breaking
// down, one converging exactly — are swapped out from under a column that
// keeps iterating, which must still reproduce its solo solve bit for bit.
// K = diag(1, 2, −1, 3): e₁ converges exactly in one step (r = 0, so
// (r̂, r) = 0 while ‖Δu‖∞ = 1 is above Tol), e₃ breaks down on (p, Kp) < 0,
// and the third column never touches the negative direction.
func TestSolveBlockMixedRetirement(t *testing.T) {
	c := sparse.NewCOO(4, 4)
	for i, d := range []float64{1, 2, -1, 3} {
		c.Add(i, i, d)
	}
	k := c.ToCSR()
	f := vec.MultiFromCols([][]float64{{1, 0, 0, 0}, {0, 0, 1, 0}, {1, 1, 0, 1}})
	opt := Options{Tol: 1e-12, MaxIter: 50}
	want := make([]float64, 4)
	wantSt, err := SolveInto(want, k, f.Col(2), nil, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, interleave := range []bool{false, true} {
		opt.Interleave = interleave
		u := vec.NewMulti(4, 3)
		st, err := SolveBlockInto(u, k, f, nil, opt, nil)
		if !errors.Is(err, ErrBreakdownMatrix) || !errors.Is(st.ColErrs[1], ErrBreakdownMatrix) {
			t.Fatalf("interleave=%v: want a breakdown in column 1, got %v", interleave, err)
		}
		if st.ColErrs[0] != nil || st.Cols[0].Iterations != 1 || u.Col(0)[0] != 1 {
			t.Fatalf("interleave=%v: exact column: %+v, err %v, u %v", interleave, st.Cols[0], st.ColErrs[0], u.Col(0))
		}
		if st.ColErrs[2] != nil || st.Cols[2].Iterations != wantSt.Iterations ||
			!bitsEqual(u.Col(2), want) || !bitsEqual(st.Cols[2].CGAlphas, wantSt.CGAlphas) {
			t.Fatalf("interleave=%v: surviving column drifted from its solo solve: %+v vs %+v", interleave, st.Cols[2], wantSt)
		}
	}
}
