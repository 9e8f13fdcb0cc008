package cg

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fem"
	"repro/internal/kernel"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/splitting"
	"repro/internal/vec"
)

// interleavedFixture builds a plate system whose preconditioner supports the
// fused interleaved sweep (6-color SSOR at ω = 1), plus an s-column block of
// random right-hand sides.
func interleavedFixture(t *testing.T, s, m int) (*sparse.CSR, *vec.Multi, precond.Preconditioner) {
	t.Helper()
	plate, err := fem.NewPlate(7, 6, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := plate.KColored
	mc, err := splitting.NewSixColorSSOR(k, plate.Ordering.GroupStart[:])
	if err != nil {
		t.Fatal(err)
	}
	var p precond.Preconditioner = precond.Identity{}
	if m > 0 {
		p, err = precond.NewMStep(mc, poly.Ones(m))
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(31))
	f := vec.NewMulti(k.Rows, s)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return k, f, p
}

// runBoth solves the same block twice — column-contiguous and interleaved —
// and returns both iterates and stats.
func runBoth(t *testing.T, k sparse.Operator, f *vec.Multi, p precond.Preconditioner, opt Options) (ucol, uint *vec.Multi, stCol, stInt BlockStats) {
	t.Helper()
	n, _ := k.Dims()
	ucol, uint = vec.NewMulti(n, f.S), vec.NewMulti(n, f.S)
	optCol, optInt := opt, opt
	optCol.Interleave = false
	optInt.Interleave = true
	var err error
	stCol, err = SolveBlockInto(ucol, k, f, p, optCol, NewWorkspace(n))
	if err != nil {
		t.Fatalf("column path: %v", err)
	}
	stInt, err = SolveBlockInto(uint, k, f, p, optInt, NewWorkspace(n))
	if err != nil {
		t.Fatalf("interleaved path: %v", err)
	}
	return ucol, uint, stCol, stInt
}

// TestInterleavedMatchesColumnBitwise is the central parity test: the
// interleaved panel path must reproduce the column-contiguous block solve
// bit for bit — iterates, iteration counts, per-column stats.
func TestInterleavedMatchesColumnBitwise(t *testing.T) {
	for _, m := range []int{0, 3} {
		for _, s := range []int{4, 8} {
			k, f, p := interleavedFixture(t, s, m)
			ucol, uint, stCol, stInt := runBoth(t, k, f, p, Options{Tol: 1e-9, MaxIter: 5000})
			if stInt.Interleaved != true || stCol.Interleaved != false {
				t.Fatalf("m=%d s=%d: Interleaved flags %v/%v", m, s, stCol.Interleaved, stInt.Interleaved)
			}
			if stCol.Iterations != stInt.Iterations || stCol.SpMMs != stInt.SpMMs ||
				stCol.InnerProducts != stInt.InnerProducts || stCol.BlockPrecondApps != stInt.BlockPrecondApps {
				t.Fatalf("m=%d s=%d: counters differ: %+v vs %+v", m, s, stCol, stInt)
			}
			for i := range ucol.Data {
				if ucol.Data[i] != uint.Data[i] {
					t.Fatalf("m=%d s=%d: iterate flat %d differs: %g vs %g", m, s, i, ucol.Data[i], uint.Data[i])
				}
			}
			for j := 0; j < s; j++ {
				c, ic := stCol.Cols[j], stInt.Cols[j]
				if c.Iterations != ic.Iterations || c.Converged != ic.Converged ||
					c.FinalUDiff != ic.FinalUDiff || c.FinalRelRes != ic.FinalRelRes ||
					c.InnerProducts != ic.InnerProducts || c.PrecondApps != ic.PrecondApps || c.MatVecs != ic.MatVecs {
					t.Fatalf("m=%d s=%d col %d stats differ: %+v vs %+v", m, s, j, c, ic)
				}
			}
		}
	}
}

// TestInterleavedParallelMatchesColumn: the fan-out path uses the same row
// chunking on both layouts, so parity holds at workers > 1 too.
func TestInterleavedParallelMatchesColumn(t *testing.T) {
	k, f, p := interleavedFixture(t, 8, 2)
	ucol, uint, _, _ := runBoth(t, k, f, p, Options{Tol: 1e-9, MaxIter: 5000, Workers: 4})
	for i := range ucol.Data {
		if ucol.Data[i] != uint.Data[i] {
			t.Fatalf("workers=4: iterate flat %d differs", i)
		}
	}
}

// TestInterleavedDeflationParity staggers per-column convergence (wildly
// different column scales plus one zero column) and checks the deflation
// machinery — swaps, scatters, hook order — preserves parity.
func TestInterleavedDeflationParity(t *testing.T) {
	k, f, p := interleavedFixture(t, 6, 3)
	scale := []float64{1, 1e-8, 1e4, 0, 1, 1e-4}
	for j := 0; j < f.S; j++ {
		col := f.Col(j)
		for i := range col {
			col[i] *= scale[j]
		}
	}
	var orderCol, orderInt []int
	n, _ := k.Dims()
	ucol, uint := vec.NewMulti(n, f.S), vec.NewMulti(n, f.S)
	optCol := Options{Tol: 1e-9, MaxIter: 5000,
		OnColumnDone: func(col int, cs ColumnStats) { orderCol = append(orderCol, col) }}
	optInt := optCol
	optInt.Interleave = true
	optInt.OnColumnDone = func(col int, cs ColumnStats) {
		orderInt = append(orderInt, col)
		// the column's slice of the iterate block must be final here
		if got := uint.Col(col); len(got) != n {
			t.Errorf("col %d: bad iterate slice", col)
		}
	}
	stCol, err := SolveBlockInto(ucol, k, f, p, optCol, NewWorkspace(n))
	if err != nil {
		t.Fatal(err)
	}
	stInt, err := SolveBlockInto(uint, k, f, p, optInt, NewWorkspace(n))
	if err != nil {
		t.Fatal(err)
	}
	if !stInt.Interleaved {
		t.Fatal("interleaved path did not engage")
	}
	if len(orderCol) != f.S || len(orderInt) != f.S {
		t.Fatalf("hook counts %d/%d != %d", len(orderCol), len(orderInt), f.S)
	}
	for i := range orderCol {
		if orderCol[i] != orderInt[i] {
			t.Fatalf("deflation order differs: %v vs %v", orderCol, orderInt)
		}
	}
	for i := range ucol.Data {
		if ucol.Data[i] != uint.Data[i] {
			t.Fatalf("iterate flat %d differs", i)
		}
	}
	if !stCol.Cols[3].Converged || stCol.Cols[3].Iterations != 0 || stInt.Cols[3].Iterations != 0 {
		t.Fatalf("zero column did not deflate instantly: %+v vs %+v", stCol.Cols[3], stInt.Cols[3])
	}
}

// TestInterleavedMaxIterParity: columns that run out of iterations surface
// ErrMaxIterations identically on both layouts.
func TestInterleavedMaxIterParity(t *testing.T) {
	k, f, p := interleavedFixture(t, 4, 1)
	n, _ := k.Dims()
	opt := Options{Tol: 1e-14, MaxIter: 3}
	ucol := vec.NewMulti(n, f.S)
	_, errCol := SolveBlockInto(ucol, k, f, p, opt, NewWorkspace(n))
	opt.Interleave = true
	uint := vec.NewMulti(n, f.S)
	stInt, errInt := SolveBlockInto(uint, k, f, p, opt, NewWorkspace(n))
	if !errors.Is(errCol, ErrMaxIterations) || !errors.Is(errInt, ErrMaxIterations) {
		t.Fatalf("errors: %v vs %v", errCol, errInt)
	}
	if !stInt.Interleaved {
		t.Fatal("interleaved path did not engage")
	}
	for i := range ucol.Data {
		if ucol.Data[i] != uint.Data[i] {
			t.Fatalf("partial iterate flat %d differs", i)
		}
	}
}

// TestInterleavedBreakdownParity: an indefinite system breaks down at the
// same iteration with the same error on both layouts.
func TestInterleavedBreakdownParity(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 1, -1) // indefinite
	k := c.ToCSR()
	f := vec.NewMulti(2, 4)
	for i := range f.Data {
		f.Data[i] = float64(i + 1)
	}
	opt := Options{Tol: 1e-10, MaxIter: 50, Interleave: true}
	u := vec.NewMulti(2, 4)
	st, err := SolveBlockInto(u, k, f, precond.Identity{}, opt, NewWorkspace(2))
	if !st.Interleaved {
		t.Fatal("interleaved path did not engage")
	}
	if !errors.Is(err, ErrBreakdownMatrix) {
		t.Fatalf("want matrix breakdown, got %v", err)
	}
}

// TestInterleavedFallback: a preconditioner without the fused interleaved
// sweep (Jacobi m-step) keeps the column-contiguous path even when
// Options.Interleave is set — and the solve still succeeds.
func TestInterleavedFallback(t *testing.T) {
	k, f, p := blockFixture(t, 4) // Jacobi m-step: no interleaved sweep
	if precond.CanApplyInterleaved(p) {
		t.Fatal("Jacobi m-step unexpectedly serves interleaved panels")
	}
	n := k.Rows
	u := vec.NewMulti(n, f.S)
	st, err := SolveBlockInto(u, k, f, p, Options{Tol: 1e-8, MaxIter: 5000, Interleave: true}, NewWorkspace(n))
	if err != nil {
		t.Fatal(err)
	}
	if st.Interleaved {
		t.Fatal("fell through to the interleaved path without preconditioner support")
	}
	if !st.Converged {
		t.Fatal("fallback solve did not converge")
	}
}

// TestInterleavedKernelPortable: the panel layout run on the portable
// reference set produces the same bits as a solve, which runs the active
// set. The portable run loads the panels with its set directly.
func TestInterleavedKernelPortable(t *testing.T) {
	k, f, p := interleavedFixture(t, 8, 2)
	n, _ := k.Dims()
	opt := Options{Tol: 1e-9, MaxIter: 5000, Interleave: true}
	uAuto := vec.NewMulti(n, f.S)
	stAuto, err := SolveBlockInto(uAuto, k, f, p, opt, NewWorkspace(n))
	if err != nil {
		t.Fatal(err)
	}
	uPort := vec.NewMulti(n, f.S)
	ws := NewWorkspace(n)
	ws.ensure(f.S)
	ws.pans.begin(k, p, uPort, f, 1, kernel.Portable())
	stPort, err := ws.run(&ws.pans, BlockStats{Interleaved: true}, f.S, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !stAuto.Interleaved {
		t.Fatal("solve did not run the panel layout")
	}
	if stAuto.Iterations != stPort.Iterations {
		t.Fatalf("iteration counts differ across kernel sets: %d vs %d", stAuto.Iterations, stPort.Iterations)
	}
	for i := range uAuto.Data {
		if uAuto.Data[i] != uPort.Data[i] {
			t.Fatalf("kernel sets disagree at flat %d", i)
		}
	}
}

// TestInterleavedSteadyStateAllocFree: after a warm-up solve on the same
// workspace, the interleaved path allocates nothing per solve (the panels
// are lazily allocated once and reused).
func TestInterleavedSteadyStateAllocFree(t *testing.T) {
	k, f, p := interleavedFixture(t, 8, 2)
	n, _ := k.Dims()
	u := vec.NewMulti(n, f.S)
	ws := NewWorkspace(n)
	opt := Options{Tol: 1e-9, MaxIter: 5000, Interleave: true}
	if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state interleaved solve allocates %.1f per run", allocs)
	}
}
