package decomp_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/cg"
	"repro/internal/decomp"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/poly"
	"repro/internal/precond"
	"repro/internal/splitting"
)

func makePlate(t *testing.T, rows, cols int) *fem.Plate {
	t.Helper()
	p, err := fem.NewPlate(rows, cols, fem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// serialSolve runs the single-matrix reference path.
func serialSolve(t *testing.T, plate *fem.Plate, m int, tol float64) ([]float64, cg.Stats) {
	t.Helper()
	k := plate.KColored
	var p precond.Preconditioner = precond.Identity{}
	if m > 0 {
		mc, err := splitting.NewSixColorSSOR(k, plate.Ordering.GroupStart[:])
		if err != nil {
			t.Fatal(err)
		}
		p, err = precond.NewMStep(mc, poly.Ones(m))
		if err != nil {
			t.Fatal(err)
		}
	}
	u, st, err := cg.Solve(k, plate.ColoredRHS(), p, cg.Options{Tol: tol, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	return u, st
}

func decomposedSolve(t *testing.T, plate *fem.Plate, p, m int, strat mesh.Strategy, tol float64) ([]float64, decomp.Stats) {
	t.Helper()
	d, err := decomp.New(decomp.PlateProblem(plate), p, strat)
	if err != nil {
		t.Fatal(err)
	}
	opt := decomp.Options{M: m, Tol: tol, MaxIter: 10000}
	if m > 0 {
		opt.Alphas = poly.Ones(m).Coeffs
	}
	u, st, err := d.Solve(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return u, st
}

// TestDecomposedMatchesSerial is the agreement property of the ISSUE: the
// decomposed backend solves the same plates to the same answer as the
// single-matrix path, across plate sizes, processor counts, partition
// strategies and preconditioner depths. Runs under -race in CI.
func TestDecomposedMatchesSerial(t *testing.T) {
	plates := []struct{ rows, cols int }{{6, 6}, {13, 9}, {20, 20}}
	for _, sz := range plates {
		plate := makePlate(t, sz.rows, sz.cols)
		for _, m := range []int{0, 2} {
			serialU, serialStats := serialSolve(t, plate, m, 1e-6)
			var scale float64
			for _, v := range serialU {
				if a := math.Abs(v); a > scale {
					scale = a
				}
			}
			for _, strat := range []mesh.Strategy{mesh.RowStrips, mesh.ColStrips} {
				for _, p := range []int{1, 2, 3, 4} {
					u, st := decomposedSolve(t, plate, p, m, strat, 1e-6)
					if !st.Converged {
						t.Fatalf("%dx%d m=%d P=%d %v: not converged", sz.rows, sz.cols, m, p, strat)
					}
					if di := st.Iterations - serialStats.Iterations; di > 1 || di < -1 {
						t.Fatalf("%dx%d m=%d P=%d %v: %d iterations vs serial %d",
							sz.rows, sz.cols, m, p, strat, st.Iterations, serialStats.Iterations)
					}
					for i := range serialU {
						if d := math.Abs(u[i] - serialU[i]); d > 1e-5*scale+1e-9 {
							t.Fatalf("%dx%d m=%d P=%d %v: solution deviates at %d by %g",
								sz.rows, sz.cols, m, p, strat, i, d)
						}
					}
				}
			}
		}
	}
}

// TestDecomposedBlocksStrategy covers the third partition strategy on a
// plate that tiles cleanly.
func TestDecomposedBlocksStrategy(t *testing.T) {
	plate := makePlate(t, 12, 13) // 12 rows x 12 free columns
	serialU, _ := serialSolve(t, plate, 3, 1e-6)
	u, st := decomposedSolve(t, plate, 4, 3, mesh.Blocks, 1e-6)
	if !st.Converged {
		t.Fatal("not converged")
	}
	for i := range serialU {
		if d := math.Abs(u[i] - serialU[i]); d > 1e-6 {
			t.Fatalf("solution deviates at %d by %g", i, d)
		}
	}
}

// TestDecomposedDeterministic: the tree reduction combines in fixed rank
// order, so repeated runs are bitwise identical despite goroutine
// scheduling.
func TestDecomposedDeterministic(t *testing.T) {
	plate := makePlate(t, 10, 10)
	d, err := decomp.New(decomp.PlateProblem(plate), 4, mesh.RowStrips)
	if err != nil {
		t.Fatal(err)
	}
	opt := decomp.Options{M: 2, Alphas: poly.Ones(2).Coeffs, Tol: 1e-6, MaxIter: 10000}
	u0, st0, err := d.Solve(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		u, st, err := d.Solve(nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st.Iterations != st0.Iterations {
			t.Fatalf("run %d: %d iterations vs %d", run, st.Iterations, st0.Iterations)
		}
		for i := range u0 {
			if u[i] != u0[i] {
				t.Fatalf("run %d: nondeterministic at %d: %g vs %g", run, i, u[i], u0[i])
			}
		}
	}
}

// TestDecompositionSharedAcrossConcurrentSolves: the Decomposition is
// immutable after New, so one cached instance may serve concurrent solves
// (the engine relies on this). Run under -race.
func TestDecompositionSharedAcrossConcurrentSolves(t *testing.T) {
	plate := makePlate(t, 10, 10)
	d, err := decomp.New(decomp.PlateProblem(plate), 3, mesh.RowStrips)
	if err != nil {
		t.Fatal(err)
	}
	opt := decomp.Options{M: 1, Alphas: poly.Ones(1).Coeffs, Tol: 1e-6, MaxIter: 10000}
	ref, _, err := d.Solve(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, _, err := d.Solve(nil, opt)
			if err != nil {
				errc <- err
				return
			}
			for i := range ref {
				if u[i] != ref[i] {
					t.Errorf("concurrent solve diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestRelResidualOnlyWhenAsked pins the reduction rule: with only Tol set
// the solve forms no residual norm (FinalRelRes −1, three reductions per
// iteration — the Finite Element Machine's count); with OnIteration set
// it reports ‖r‖/‖f‖ every iteration at the cost of a fourth.
func TestRelResidualOnlyWhenAsked(t *testing.T) {
	plate := makePlate(t, 8, 8)
	d, err := decomp.New(decomp.PlateProblem(plate), 3, mesh.RowStrips)
	if err != nil {
		t.Fatal(err)
	}
	opt := decomp.Options{M: 2, Alphas: poly.Ones(2).Coeffs, Tol: 1e-6}
	u, st, err := d.Solve(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalRelRes != -1 {
		t.Fatalf("Tol-only solve reports FinalRelRes %g, want -1", st.FinalRelRes)
	}
	for _, ss := range st.Subs {
		if ss.Reductions != 3*st.Iterations {
			t.Fatalf("rank %d: %d reductions over %d iterations, want 3 each", ss.Rank, ss.Reductions, st.Iterations)
		}
	}

	var last float64
	calls := 0
	opt.OnIteration = func(iter int, udiff, relres float64) {
		calls++
		last = relres
	}
	u2, st2, err := d.Solve(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Iterations != st.Iterations || calls != st2.Iterations {
		t.Fatalf("%d iterations and %d callbacks, want %d of each", st2.Iterations, calls, st.Iterations)
	}
	for i := range u {
		if u2[i] != u[i] {
			t.Fatalf("tracking the residual changed u[%d]: %g vs %g", i, u2[i], u[i])
		}
	}
	if st2.FinalRelRes != last {
		t.Fatalf("FinalRelRes %g, last callback %g", st2.FinalRelRes, last)
	}
	r := make([]float64, len(u))
	plate.KColored.MulVecTo(r, u)
	f := plate.ColoredRHS()
	var rr, ff float64
	for i := range r {
		rr += (f[i] - r[i]) * (f[i] - r[i])
		ff += f[i] * f[i]
	}
	if trueRel := math.Sqrt(rr / ff); math.Abs(st2.FinalRelRes-trueRel) > 1e-9 {
		t.Fatalf("FinalRelRes %g, true relative residual %g", st2.FinalRelRes, trueRel)
	}
	for _, ss := range st2.Subs {
		if ss.Reductions != 4*st2.Iterations+1 {
			t.Fatalf("rank %d: %d reductions over %d iterations, want 4 each plus ‖f‖", ss.Rank, ss.Reductions, st2.Iterations)
		}
	}
}

// countingObserver tallies one rank's reported work.
type countingObserver struct {
	flops, posts, haloPosts, drains, sums, flags int
	inFlight                                     bool
	nested                                       bool
}

func (o *countingObserver) Flops(n int) { o.flops += n }
func (o *countingObserver) Post(colors []int, halo bool) {
	o.nested = o.nested || o.inFlight
	o.inFlight = true
	o.posts++
	if halo {
		o.haloPosts++
	}
}
func (o *countingObserver) Drain() { o.inFlight = false; o.drains++ }
func (o *countingObserver) Reduce(flag bool) {
	o.nested = o.nested || o.inFlight
	if flag {
		o.flags++
	} else {
		o.sums++
	}
}

// TestObserverSeesEveryRank: each rank's observer sees paired posts and
// drains with no reduction while an exchange is in flight, one halo post
// and one flag reduction per iteration, and the solve's answer is the
// unobserved one bit for bit.
func TestObserverSeesEveryRank(t *testing.T) {
	plate := makePlate(t, 10, 10)
	d, err := decomp.New(decomp.PlateProblem(plate), 4, mesh.RowStrips)
	if err != nil {
		t.Fatal(err)
	}
	opt := decomp.Options{M: 2, Alphas: poly.Ones(2).Coeffs, Tol: 1e-6}
	ref, _, err := d.Solve(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]*countingObserver, d.P)
	opt.Observe = func(rank int) decomp.Observer {
		obs[rank] = &countingObserver{}
		return obs[rank]
	}
	u, st, err := d.Solve(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if u[i] != ref[i] {
			t.Fatalf("observed solve differs at %d: %g vs %g", i, u[i], ref[i])
		}
	}
	for rank, o := range obs {
		if o == nil {
			t.Fatalf("rank %d never observed", rank)
		}
		if o.posts != o.drains || o.inFlight || o.nested {
			t.Fatalf("rank %d: %d posts, %d drains, nested %v", rank, o.posts, o.drains, o.nested)
		}
		if o.haloPosts != st.Iterations || o.flags != st.Iterations {
			t.Fatalf("rank %d: %d halo posts and %d flags over %d iterations", rank, o.haloPosts, o.flags, st.Iterations)
		}
		if o.sums+o.flags != st.Subs[rank].Reductions || o.flops <= 0 {
			t.Fatalf("rank %d: %+v against %d reductions", rank, *o, st.Subs[rank].Reductions)
		}
	}
}

func TestSolveOptionValidation(t *testing.T) {
	plate := makePlate(t, 6, 6)
	d, err := decomp.New(decomp.PlateProblem(plate), 2, mesh.RowStrips)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Solve(nil, decomp.Options{M: 2, Tol: 1e-6}); err == nil {
		t.Fatal("want error for M=2 without Alphas")
	}
	if _, _, err := d.Solve(nil, decomp.Options{}); err == nil {
		t.Fatal("want error with no stopping test")
	}
	if _, _, err := d.Solve(make([]float64, 3), decomp.Options{Tol: 1e-6}); err == nil {
		t.Fatal("want error for wrong rhs length")
	}
}

func TestSolveCancellation(t *testing.T) {
	plate := makePlate(t, 20, 20)
	d, err := decomp.New(decomp.PlateProblem(plate), 4, mesh.RowStrips)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = d.Solve(nil, decomp.Options{Tol: 1e-12, MaxIter: 10000, Ctx: ctx})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestHaloFraction: strip partitions of a plate replicate one row/column
// band per internal boundary; the fraction must be positive for P>1 and
// zero for P=1.
func TestHaloFraction(t *testing.T) {
	plate := makePlate(t, 16, 16)
	d1, err := decomp.New(decomp.PlateProblem(plate), 1, mesh.RowStrips)
	if err != nil {
		t.Fatal(err)
	}
	if f := d1.HaloFraction(); f != 0 {
		t.Fatalf("P=1 halo fraction %g, want 0", f)
	}
	d4, err := decomp.New(decomp.PlateProblem(plate), 4, mesh.RowStrips)
	if err != nil {
		t.Fatal(err)
	}
	if f := d4.HaloFraction(); f <= 0 || f > 1 {
		t.Fatalf("P=4 halo fraction %g out of range", f)
	}
	// Per-subdomain timing lands in Stats.Subs.
	_, st, err := d4.Solve(nil, decomp.Options{Tol: 1e-6, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Subs) != 4 {
		t.Fatalf("want 4 SubStats, got %d", len(st.Subs))
	}
	for _, ss := range st.Subs {
		if ss.Exchanges == 0 || ss.Reductions == 0 {
			t.Fatalf("rank %d: no exchanges/reductions recorded", ss.Rank)
		}
	}
}
