package cg

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/vec"
)

func TestVerifyResidualMatchesRecurrence(t *testing.T) {
	k := model.Poisson2D(15, 15)
	f := model.RandomVec(rand.New(rand.NewSource(9)), 225)
	_, st, err := Solve(k, f, nil, Options{RelResidualTol: 1e-10, VerifyResidual: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.TrueRelRes < 0 {
		t.Fatal("true residual not computed")
	}
	// Recurrence and true residual agree at convergence.
	if math.Abs(st.TrueRelRes-st.FinalRelRes) > 1e-8 {
		t.Fatalf("true %g vs recurrence %g", st.TrueRelRes, st.FinalRelRes)
	}
}

func TestVerifyResidualDefaultOff(t *testing.T) {
	k := model.Laplacian1D(8)
	f := make([]float64, 8)
	f[0] = 1
	_, st, err := Solve(k, f, nil, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if st.TrueRelRes != -1 {
		t.Fatalf("TrueRelRes = %v without VerifyResidual", st.TrueRelRes)
	}
}

// A column the StopWhen test retires reports Converged, fires OnColumnDone
// once and stops: its iterate is the one a solve capped at that iteration
// leaves. The other columns iterate on. Both layouts, with the steady state
// still allocation-free.
func TestStopWhenRetiresColumn(t *testing.T) {
	const col, at = 2, 5
	k, f, p := interleavedFixture(t, 4, 3)
	n, _ := k.Dims()
	solo, _, _ := Solve(k, f.Col(col), p, Options{Tol: 1e-10, MaxIter: at})
	fired := make([]int, f.S)
	var done Stats
	stop := func(j int, st Stats) bool { return j == col && st.Iterations == at }
	onDone := func(j int, cs ColumnStats) {
		fired[j]++
		if j == col {
			done = cs.Stats
		}
	}
	for _, interleave := range []bool{false, true} {
		clear(fired)
		u := vec.NewMulti(n, f.S)
		ws := NewWorkspace(n)
		opt := Options{Tol: 1e-10, MaxIter: 5000, Interleave: interleave, StopWhen: stop, OnColumnDone: onDone}
		st, err := SolveBlockInto(u, k, f, p, opt, ws)
		if err != nil {
			t.Fatalf("interleave=%v: %v", interleave, err)
		}
		if st.Interleaved != interleave {
			t.Fatalf("interleave=%v: layout ran interleaved=%v", interleave, st.Interleaved)
		}
		c := st.Cols[col]
		if !c.Converged || c.Iterations != at || !done.Converged || done.Iterations != at || st.ColErrs[col] != nil {
			t.Fatalf("interleave=%v: retired column reports %+v (hook saw converged=%v at %d)", interleave, c, done.Converged, done.Iterations)
		}
		for j, nf := range fired {
			if nf != 1 {
				t.Fatalf("interleave=%v: OnColumnDone fired %d times for column %d", interleave, nf, j)
			}
			if j != col && st.Cols[j].Iterations <= at {
				t.Fatalf("interleave=%v: column %d stopped at %d", interleave, j, st.Cols[j].Iterations)
			}
		}
		for i, v := range u.Col(col) {
			if math.Float64bits(v) != math.Float64bits(solo[i]) {
				t.Fatalf("interleave=%v: retired iterate differs at %d: %g vs %g", interleave, i, v, solo[i])
			}
		}
		opt.OnColumnDone = nil // its snapshots allocate by design
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := SolveBlockInto(u, k, f, p, opt, ws); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("interleave=%v: solve with StopWhen allocated %g times per run", interleave, allocs)
		}
	}
}
