package decomp_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/decomp"
	"repro/internal/fem"
	"repro/internal/mesh"
	"repro/internal/poly"
)

// hashBits is an FNV-64a hash of the bits of v.
func hashBits(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinLine renders one decomposed solve: the iteration count, the bits of
// the final ‖Δu‖∞ and ‖r‖/‖f‖, a hash of the iterate's bits and each
// rank's reduction and message counts.
func pinLine(label string, u []float64, st decomp.Stats, err error) string {
	red := make([]int, len(st.Subs))
	ex := make([]int, len(st.Subs))
	for i, ss := range st.Subs {
		red[i], ex[i] = ss.Reductions, ss.Exchanges
	}
	return fmt.Sprintf("%s it=%d ud=%016x rr=%016x u=%016x red=%v ex=%v err=%v\n",
		label, st.Iterations, math.Float64bits(st.FinalUDiff), math.Float64bits(st.FinalRelRes),
		hashBits(u), red, ex, err)
}

// TestSolvePins pins the decomposed solver bit for bit: for every plate,
// processor count, partition strategy and preconditioner below, Tol-only
// and with an iteration hook, the iterate, the iteration count, the final
// stopping quantities and every rank's reduction and message counts must
// stay exactly what they were recorded as.
func TestSolvePins(t *testing.T) {
	ls, err := poly.LeastSquares(3, 0.005, 1.02)
	if err != nil {
		t.Fatal(err)
	}
	pcs := []struct {
		m      int
		alphas []float64
	}{{0, nil}, {2, poly.Ones(2).Coeffs}, {3, ls.Coeffs}}
	var b strings.Builder
	run := func(plate *fem.Plate, p int, strat mesh.Strategy, sname string) {
		d, err := decomp.New(decomp.PlateProblem(plate), p, strat)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range pcs {
			for _, hook := range []bool{false, true} {
				opt := decomp.Options{M: pc.m, Alphas: pc.alphas, Tol: 1e-6, MaxIter: 10000}
				mode := "tol"
				if hook {
					opt.OnIteration = func(int, float64, float64) {}
					mode = "hook"
				}
				u, st, err := d.Solve(nil, opt)
				label := fmt.Sprintf("%dx%d %s P=%d m=%d %s", plate.Grid.Rows, plate.Grid.Cols, sname, p, pc.m, mode)
				b.WriteString(pinLine(label, u, st, err))
			}
		}
	}
	for _, sz := range []struct{ rows, cols int }{{6, 6}, {13, 9}, {20, 20}} {
		plate := makePlate(t, sz.rows, sz.cols)
		for _, strat := range []struct {
			s    mesh.Strategy
			name string
		}{{mesh.RowStrips, "rows"}, {mesh.ColStrips, "cols"}} {
			for p := 1; p <= 4; p++ {
				run(plate, p, strat.s, strat.name)
			}
		}
	}
	run(makePlate(t, 12, 13), 4, mesh.Blocks, "blocks")
	if got := b.String(); got != pinGolden {
		t.Errorf("decomposed solves moved; got:\n%s", got)
	}
}

// TestSolveCancelMidSolve cancels the context from the iteration hook:
// every rank must agree to stop, so the solve returns the context's own
// error after one more iteration instead of leaving ranks waiting in the
// reduction tree.
func TestSolveCancelMidSolve(t *testing.T) {
	plate := makePlate(t, 20, 20)
	for _, p := range []int{2, 3, 4} {
		d, err := decomp.New(decomp.PlateProblem(plate), p, mesh.RowStrips)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, 17} {
			ctx, cancel := context.WithCancel(context.Background())
			opt := decomp.Options{Tol: 1e-12, MaxIter: 10000, Ctx: ctx}
			opt.OnIteration = func(iter int, _, _ float64) {
				if iter == k {
					cancel()
				}
			}
			type outcome struct {
				st  decomp.Stats
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				_, st, err := d.Solve(nil, opt)
				done <- outcome{st, err}
			}()
			select {
			case o := <-done:
				if o.err != context.Canceled {
					t.Fatalf("P=%d k=%d: err %v, want context.Canceled", p, k, o.err)
				}
				if o.st.Iterations != k+1 {
					t.Fatalf("P=%d k=%d: %d iterations, want %d", p, k, o.st.Iterations, k+1)
				}
			case <-time.After(time.Minute):
				t.Fatalf("P=%d k=%d: canceled solve did not return", p, k)
			}
			cancel()
		}
	}
}

const pinGolden = `6x6 rows P=1 m=0 tol it=47 ud=3eaaaeb802378134 rr=bff0000000000000 u=a380ac0b5514ba7e red=[141] ex=[0] err=<nil>
6x6 rows P=1 m=0 hook it=47 ud=3eaaaeb802378134 rr=3ed804351442c76c u=a380ac0b5514ba7e red=[189] ex=[0] err=<nil>
6x6 rows P=1 m=2 tol it=16 ud=3e8ea4d07ab152a2 rr=bff0000000000000 u=6a85142e99bdaa09 red=[48] ex=[0] err=<nil>
6x6 rows P=1 m=2 hook it=16 ud=3e8ea4d07ab152a2 rr=3e7a84988e87cdfa u=6a85142e99bdaa09 red=[65] ex=[0] err=<nil>
6x6 rows P=1 m=3 tol it=10 ud=3e9137ab4fa1a727 rr=bff0000000000000 u=4c339b363655ef8e red=[30] ex=[0] err=<nil>
6x6 rows P=1 m=3 hook it=10 ud=3e9137ab4fa1a727 rr=3e8b5a0f8f7f5009 u=4c339b363655ef8e red=[41] ex=[0] err=<nil>
6x6 rows P=2 m=0 tol it=47 ud=3eab949b789ddbb0 rr=bff0000000000000 u=e9f05639ceeb8a56 red=[141 141] ex=[47 47] err=<nil>
6x6 rows P=2 m=0 hook it=47 ud=3eab949b789ddbb0 rr=3eca0a4e4609c7ce u=e9f05639ceeb8a56 red=[189 189] ex=[47 47] err=<nil>
6x6 rows P=2 m=2 tol it=16 ud=3e8ea4d07ab18191 rr=bff0000000000000 u=e10aa15452ccf90e red=[48 48] ex=[176 176] err=<nil>
6x6 rows P=2 m=2 hook it=16 ud=3e8ea4d07ab18191 rr=3e7a84988e8762b9 u=e10aa15452ccf90e red=[65 65] ex=[176 176] err=<nil>
6x6 rows P=2 m=3 tol it=10 ud=3e9137ab4fa1c556 rr=bff0000000000000 u=031c80ab96744525 red=[30 30] ex=[160 160] err=<nil>
6x6 rows P=2 m=3 hook it=10 ud=3e9137ab4fa1c556 rr=3e8b5a0f8f801b53 u=031c80ab96744525 red=[41 41] ex=[160 160] err=<nil>
6x6 rows P=3 m=0 tol it=47 ud=3eac1757e9463205 rr=bff0000000000000 u=8274939bb45bcde1 red=[141 141 141] ex=[47 94 47] err=<nil>
6x6 rows P=3 m=0 hook it=47 ud=3eac1757e9463205 rr=3ecaef107d9a20cc u=8274939bb45bcde1 red=[189 189 189] ex=[47 94 47] err=<nil>
6x6 rows P=3 m=2 tol it=16 ud=3e8ea4d07ab08b46 rr=bff0000000000000 u=1b0da76d585cc107 red=[48 48 48] ex=[176 352 176] err=<nil>
6x6 rows P=3 m=2 hook it=16 ud=3e8ea4d07ab08b46 rr=3e7a84988e889060 u=1b0da76d585cc107 red=[65 65 65] ex=[176 352 176] err=<nil>
6x6 rows P=3 m=3 tol it=10 ud=3e9137ab4fa21978 rr=bff0000000000000 u=28286ee50c4ee8e3 red=[30 30 30] ex=[160 320 160] err=<nil>
6x6 rows P=3 m=3 hook it=10 ud=3e9137ab4fa21978 rr=3e8b5a0f8f7ef035 u=28286ee50c4ee8e3 red=[41 41 41] ex=[160 320 160] err=<nil>
6x6 rows P=4 m=0 tol it=47 ud=3eabe8ca69ecf13f rr=bff0000000000000 u=7291e9af188c348e red=[141 141 141 141] ex=[47 94 94 47] err=<nil>
6x6 rows P=4 m=0 hook it=47 ud=3eabe8ca69ecf13f rr=3ecd95a18d63ced6 u=7291e9af188c348e red=[189 189 189 189] ex=[47 94 94 47] err=<nil>
6x6 rows P=4 m=2 tol it=16 ud=3e8ea4d07ab00d1f rr=bff0000000000000 u=70dd4ce2504b3111 red=[48 48 48 48] ex=[176 352 352 176] err=<nil>
6x6 rows P=4 m=2 hook it=16 ud=3e8ea4d07ab00d1f rr=3e7a84988e89cce7 u=70dd4ce2504b3111 red=[65 65 65 65] ex=[176 352 352 176] err=<nil>
6x6 rows P=4 m=3 tol it=10 ud=3e9137ab4fa1e92c rr=bff0000000000000 u=b66c2020ddf871bf red=[30 30 30 30] ex=[160 320 320 160] err=<nil>
6x6 rows P=4 m=3 hook it=10 ud=3e9137ab4fa1e92c rr=3e8b5a0f8f7f1e1c u=b66c2020ddf871bf red=[41 41 41 41] ex=[160 320 320 160] err=<nil>
6x6 cols P=1 m=0 tol it=47 ud=3eaaaeb802378134 rr=bff0000000000000 u=a380ac0b5514ba7e red=[141] ex=[0] err=<nil>
6x6 cols P=1 m=0 hook it=47 ud=3eaaaeb802378134 rr=3ed804351442c76c u=a380ac0b5514ba7e red=[189] ex=[0] err=<nil>
6x6 cols P=1 m=2 tol it=16 ud=3e8ea4d07ab152a2 rr=bff0000000000000 u=6a85142e99bdaa09 red=[48] ex=[0] err=<nil>
6x6 cols P=1 m=2 hook it=16 ud=3e8ea4d07ab152a2 rr=3e7a84988e87cdfa u=6a85142e99bdaa09 red=[65] ex=[0] err=<nil>
6x6 cols P=1 m=3 tol it=10 ud=3e9137ab4fa1a727 rr=bff0000000000000 u=4c339b363655ef8e red=[30] ex=[0] err=<nil>
6x6 cols P=1 m=3 hook it=10 ud=3e9137ab4fa1a727 rr=3e8b5a0f8f7f5009 u=4c339b363655ef8e red=[41] ex=[0] err=<nil>
6x6 cols P=2 m=0 tol it=47 ud=3eaabc8ccb24cbdc rr=bff0000000000000 u=0bcb3567a6b9f603 red=[141 141] ex=[47 47] err=<nil>
6x6 cols P=2 m=0 hook it=47 ud=3eaabc8ccb24cbdc rr=3ed7d13132246d20 u=0bcb3567a6b9f603 red=[189 189] ex=[47 47] err=<nil>
6x6 cols P=2 m=2 tol it=16 ud=3e8ea4d07ab18c7f rr=bff0000000000000 u=ce13d3fd85865344 red=[48 48] ex=[176 176] err=<nil>
6x6 cols P=2 m=2 hook it=16 ud=3e8ea4d07ab18c7f rr=3e7a84988e87e615 u=ce13d3fd85865344 red=[65 65] ex=[176 176] err=<nil>
6x6 cols P=2 m=3 tol it=10 ud=3e9137ab4fa1fd03 rr=bff0000000000000 u=41c84754ba474538 red=[30 30] ex=[160 160] err=<nil>
6x6 cols P=2 m=3 hook it=10 ud=3e9137ab4fa1fd03 rr=3e8b5a0f8f7ffce4 u=41c84754ba474538 red=[41 41] ex=[160 160] err=<nil>
6x6 cols P=3 m=0 tol it=47 ud=3ea9c32aac57a743 rr=bff0000000000000 u=809053c0be57eeb4 red=[141 141 141] ex=[47 94 47] err=<nil>
6x6 cols P=3 m=0 hook it=47 ud=3ea9c32aac57a743 rr=3edad580d1bbf388 u=809053c0be57eeb4 red=[189 189 189] ex=[47 94 47] err=<nil>
6x6 cols P=3 m=2 tol it=16 ud=3e8ea4d07ab16a06 rr=bff0000000000000 u=d3b65205c0e2d297 red=[48 48 48] ex=[176 352 176] err=<nil>
6x6 cols P=3 m=2 hook it=16 ud=3e8ea4d07ab16a06 rr=3e7a84988e87bc20 u=d3b65205c0e2d297 red=[65 65 65] ex=[176 352 176] err=<nil>
6x6 cols P=3 m=3 tol it=10 ud=3e9137ab4fa1ebbf rr=bff0000000000000 u=19570853653e3589 red=[30 30 30] ex=[160 320 160] err=<nil>
6x6 cols P=3 m=3 hook it=10 ud=3e9137ab4fa1ebbf rr=3e8b5a0f8f7e6e5d u=19570853653e3589 red=[41 41 41] ex=[160 320 160] err=<nil>
6x6 cols P=4 m=0 tol it=47 ud=3ea98426a202cb77 rr=bff0000000000000 u=10eefd0e8434a1b7 red=[141 141 141 141] ex=[47 94 94 47] err=<nil>
6x6 cols P=4 m=0 hook it=47 ud=3ea98426a202cb77 rr=3edb6de6ee5b7f9d u=10eefd0e8434a1b7 red=[189 189 189 189] ex=[47 94 94 47] err=<nil>
6x6 cols P=4 m=2 tol it=16 ud=3e8ea4d07ab08c5d rr=bff0000000000000 u=39bd2bedfaba902e red=[48 48 48 48] ex=[176 352 352 176] err=<nil>
6x6 cols P=4 m=2 hook it=16 ud=3e8ea4d07ab08c5d rr=3e7a84988e894c35 u=39bd2bedfaba902e red=[65 65 65 65] ex=[176 352 352 176] err=<nil>
6x6 cols P=4 m=3 tol it=10 ud=3e9137ab4fa1bda2 rr=bff0000000000000 u=9c7eab08433d3926 red=[30 30 30 30] ex=[160 320 320 160] err=<nil>
6x6 cols P=4 m=3 hook it=10 ud=3e9137ab4fa1bda2 rr=3e8b5a0f8f7f84a2 u=9c7eab08433d3926 red=[41 41 41 41] ex=[160 320 320 160] err=<nil>
13x9 rows P=1 m=0 tol it=95 ud=3ea86ace81664706 rr=bff0000000000000 u=4c5c022799cde2c2 red=[285] ex=[0] err=<nil>
13x9 rows P=1 m=0 hook it=95 ud=3ea86ace81664706 rr=3ee8fdf31ba403cf u=4c5c022799cde2c2 red=[381] ex=[0] err=<nil>
13x9 rows P=1 m=2 tol it=29 ud=3ea9069b48309e95 rr=bff0000000000000 u=3d98fb09ed7f1896 red=[87] ex=[0] err=<nil>
13x9 rows P=1 m=2 hook it=29 ud=3ea9069b48309e95 rr=3ed0c8433fe0c3bd u=3d98fb09ed7f1896 red=[117] ex=[0] err=<nil>
13x9 rows P=1 m=3 tol it=17 ud=3e9892512dfb336c rr=bff0000000000000 u=f94f31098a80aae7 red=[51] ex=[0] err=<nil>
13x9 rows P=1 m=3 hook it=17 ud=3e9892512dfb336c rr=3ea3b12e7dc65f53 u=f94f31098a80aae7 red=[69] ex=[0] err=<nil>
13x9 rows P=2 m=0 tol it=95 ud=3ea90facd25649f9 rr=bff0000000000000 u=59c0aeab9422997c red=[285 285] ex=[95 95] err=<nil>
13x9 rows P=2 m=0 hook it=95 ud=3ea90facd25649f9 rr=3ee8a8ffe8f90b7a u=59c0aeab9422997c red=[381 381] ex=[95 95] err=<nil>
13x9 rows P=2 m=2 tol it=29 ud=3ea9069b4830c1d0 rr=bff0000000000000 u=5c83d73e9bae89c5 red=[87 87] ex=[319 319] err=<nil>
13x9 rows P=2 m=2 hook it=29 ud=3ea9069b4830c1d0 rr=3ed0c8433fe0c1e5 u=5c83d73e9bae89c5 red=[117 117] ex=[319 319] err=<nil>
13x9 rows P=2 m=3 tol it=17 ud=3e9892512dfbc4c0 rr=bff0000000000000 u=5c64e55300fde1ab red=[51 51] ex=[272 272] err=<nil>
13x9 rows P=2 m=3 hook it=17 ud=3e9892512dfbc4c0 rr=3ea3b12e7dc66c45 u=5c64e55300fde1ab red=[69 69] ex=[272 272] err=<nil>
13x9 rows P=3 m=0 tol it=95 ud=3eaa2df14230b0e5 rr=bff0000000000000 u=e0ef3d6bff27b30c red=[285 285 285] ex=[95 190 95] err=<nil>
13x9 rows P=3 m=0 hook it=95 ud=3eaa2df14230b0e5 rr=3ee8aa5b7fa11654 u=e0ef3d6bff27b30c red=[381 381 381] ex=[95 190 95] err=<nil>
13x9 rows P=3 m=2 tol it=29 ud=3ea9069b4830b3a5 rr=bff0000000000000 u=93d2b567ebfb7e8e red=[87 87 87] ex=[319 638 319] err=<nil>
13x9 rows P=3 m=2 hook it=29 ud=3ea9069b4830b3a5 rr=3ed0c8433fe0c503 u=93d2b567ebfb7e8e red=[117 117 117] ex=[319 638 319] err=<nil>
13x9 rows P=3 m=3 tol it=17 ud=3e9892512dfbaf03 rr=bff0000000000000 u=df982440ded7b83a red=[51 51 51] ex=[272 544 272] err=<nil>
13x9 rows P=3 m=3 hook it=17 ud=3e9892512dfbaf03 rr=3ea3b12e7dc665aa u=df982440ded7b83a red=[69 69 69] ex=[272 544 272] err=<nil>
13x9 rows P=4 m=0 tol it=95 ud=3ea84d2ccfb332c3 rr=bff0000000000000 u=cb82c2e5c7ca1ed3 red=[285 285 285 285] ex=[95 190 190 95] err=<nil>
13x9 rows P=4 m=0 hook it=95 ud=3ea84d2ccfb332c3 rr=3ee8f142d2f8118b u=cb82c2e5c7ca1ed3 red=[381 381 381 381] ex=[95 190 190 95] err=<nil>
13x9 rows P=4 m=2 tol it=29 ud=3ea9069b4830c4e3 rr=bff0000000000000 u=f4cbfbddfa4a9c5d red=[87 87 87 87] ex=[319 638 638 319] err=<nil>
13x9 rows P=4 m=2 hook it=29 ud=3ea9069b4830c4e3 rr=3ed0c8433fe0c319 u=f4cbfbddfa4a9c5d red=[117 117 117 117] ex=[319 638 638 319] err=<nil>
13x9 rows P=4 m=3 tol it=17 ud=3e9892512dfac8d1 rr=bff0000000000000 u=ce9d70a16b31812a red=[51 51 51 51] ex=[272 544 544 272] err=<nil>
13x9 rows P=4 m=3 hook it=17 ud=3e9892512dfac8d1 rr=3ea3b12e7dc66167 u=ce9d70a16b31812a red=[69 69 69 69] ex=[272 544 544 272] err=<nil>
13x9 cols P=1 m=0 tol it=95 ud=3ea86ace81664706 rr=bff0000000000000 u=4c5c022799cde2c2 red=[285] ex=[0] err=<nil>
13x9 cols P=1 m=0 hook it=95 ud=3ea86ace81664706 rr=3ee8fdf31ba403cf u=4c5c022799cde2c2 red=[381] ex=[0] err=<nil>
13x9 cols P=1 m=2 tol it=29 ud=3ea9069b48309e95 rr=bff0000000000000 u=3d98fb09ed7f1896 red=[87] ex=[0] err=<nil>
13x9 cols P=1 m=2 hook it=29 ud=3ea9069b48309e95 rr=3ed0c8433fe0c3bd u=3d98fb09ed7f1896 red=[117] ex=[0] err=<nil>
13x9 cols P=1 m=3 tol it=17 ud=3e9892512dfb336c rr=bff0000000000000 u=f94f31098a80aae7 red=[51] ex=[0] err=<nil>
13x9 cols P=1 m=3 hook it=17 ud=3e9892512dfb336c rr=3ea3b12e7dc65f53 u=f94f31098a80aae7 red=[69] ex=[0] err=<nil>
13x9 cols P=2 m=0 tol it=95 ud=3eaa1ecad1403e81 rr=bff0000000000000 u=9b8f6f766d846053 red=[285 285] ex=[95 95] err=<nil>
13x9 cols P=2 m=0 hook it=95 ud=3eaa1ecad1403e81 rr=3ee8b977c698d07b u=9b8f6f766d846053 red=[381 381] ex=[95 95] err=<nil>
13x9 cols P=2 m=2 tol it=29 ud=3ea9069b4830b26e rr=bff0000000000000 u=b1c53acd54cdd474 red=[87 87] ex=[319 319] err=<nil>
13x9 cols P=2 m=2 hook it=29 ud=3ea9069b4830b26e rr=3ed0c8433fe0c4ab u=b1c53acd54cdd474 red=[117 117] ex=[319 319] err=<nil>
13x9 cols P=2 m=3 tol it=17 ud=3e9892512dfbc0e5 rr=bff0000000000000 u=c990e9a35bc89e92 red=[51 51] ex=[272 272] err=<nil>
13x9 cols P=2 m=3 hook it=17 ud=3e9892512dfbc0e5 rr=3ea3b12e7dc6655f u=c990e9a35bc89e92 red=[69 69] ex=[272 272] err=<nil>
13x9 cols P=3 m=0 tol it=95 ud=3ea88fa0a4e8646f rr=bff0000000000000 u=328415b627b0506d red=[285 285 285] ex=[95 190 95] err=<nil>
13x9 cols P=3 m=0 hook it=95 ud=3ea88fa0a4e8646f rr=3ee8af57163e435f u=328415b627b0506d red=[381 381 381] ex=[95 190 95] err=<nil>
13x9 cols P=3 m=2 tol it=29 ud=3ea9069b4830e71f rr=bff0000000000000 u=ef7277e969963251 red=[87 87 87] ex=[319 638 319] err=<nil>
13x9 cols P=3 m=2 hook it=29 ud=3ea9069b4830e71f rr=3ed0c8433fe0c2de u=ef7277e969963251 red=[117 117 117] ex=[319 638 319] err=<nil>
13x9 cols P=3 m=3 tol it=17 ud=3e9892512dfc6472 rr=bff0000000000000 u=26e7c204f327f83e red=[51 51 51] ex=[272 544 272] err=<nil>
13x9 cols P=3 m=3 hook it=17 ud=3e9892512dfc6472 rr=3ea3b12e7dc665de u=26e7c204f327f83e red=[69 69 69] ex=[272 544 272] err=<nil>
13x9 cols P=4 m=0 tol it=95 ud=3ea9946bfa0775ce rr=bff0000000000000 u=a7fc05bc171dd59a red=[285 285 285 285] ex=[95 190 190 95] err=<nil>
13x9 cols P=4 m=0 hook it=95 ud=3ea9946bfa0775ce rr=3ee92c2c2a2b86f8 u=a7fc05bc171dd59a red=[381 381 381 381] ex=[95 190 190 95] err=<nil>
13x9 cols P=4 m=2 tol it=29 ud=3ea9069b4830ac6a rr=bff0000000000000 u=26b1a09dd949f333 red=[87 87 87 87] ex=[319 638 638 319] err=<nil>
13x9 cols P=4 m=2 hook it=29 ud=3ea9069b4830ac6a rr=3ed0c8433fe0c354 u=26b1a09dd949f333 red=[117 117 117 117] ex=[319 638 638 319] err=<nil>
13x9 cols P=4 m=3 tol it=17 ud=3e9892512dfb01cb rr=bff0000000000000 u=5a0a1843f9ba15a4 red=[51 51 51 51] ex=[272 544 544 272] err=<nil>
13x9 cols P=4 m=3 hook it=17 ud=3e9892512dfb01cb rr=3ea3b12e7dc659e2 u=5a0a1843f9ba15a4 red=[69 69 69 69] ex=[272 544 544 272] err=<nil>
20x20 rows P=1 m=0 tol it=163 ud=3ead805fa23c6402 rr=bff0000000000000 u=0ca270e2a237f871 red=[489] ex=[0] err=<nil>
20x20 rows P=1 m=0 hook it=163 ud=3ead805fa23c6402 rr=3f057ea110182394 u=0ca270e2a237f871 red=[653] ex=[0] err=<nil>
20x20 rows P=1 m=2 tol it=52 ud=3ea981c058775c89 rr=bff0000000000000 u=86d90532286ee074 red=[156] ex=[0] err=<nil>
20x20 rows P=1 m=2 hook it=52 ud=3ea981c058775c89 rr=3ed0eb187e8a5690 u=86d90532286ee074 red=[209] ex=[0] err=<nil>
20x20 rows P=1 m=3 tol it=30 ud=3ea9240883812bce rr=bff0000000000000 u=0cedec3a637d9f91 red=[90] ex=[0] err=<nil>
20x20 rows P=1 m=3 hook it=30 ud=3ea9240883812bce rr=3eb30ebc9f59a646 u=0cedec3a637d9f91 red=[121] ex=[0] err=<nil>
20x20 rows P=2 m=0 tol it=163 ud=3eafafa98d832f47 rr=bff0000000000000 u=a6f9d91317fc5b41 red=[489 489] ex=[163 163] err=<nil>
20x20 rows P=2 m=0 hook it=163 ud=3eafafa98d832f47 rr=3f06570053c9b63d u=a6f9d91317fc5b41 red=[653 653] ex=[163 163] err=<nil>
20x20 rows P=2 m=2 tol it=52 ud=3ea981c0587769b8 rr=bff0000000000000 u=8447b05c99726b7e red=[156 156] ex=[572 572] err=<nil>
20x20 rows P=2 m=2 hook it=52 ud=3ea981c0587769b8 rr=3ed0eb187e8a56d7 u=8447b05c99726b7e red=[209 209] ex=[572 572] err=<nil>
20x20 rows P=2 m=3 tol it=30 ud=3ea9240883812347 rr=bff0000000000000 u=3accff90e4acc2db red=[90 90] ex=[480 480] err=<nil>
20x20 rows P=2 m=3 hook it=30 ud=3ea9240883812347 rr=3eb30ebc9f59d3cd u=3accff90e4acc2db red=[121 121] ex=[480 480] err=<nil>
20x20 rows P=3 m=0 tol it=163 ud=3eaed3448e554491 rr=bff0000000000000 u=dc18244872c87933 red=[489 489 489] ex=[163 326 163] err=<nil>
20x20 rows P=3 m=0 hook it=163 ud=3eaed3448e554491 rr=3f06573eb0526608 u=dc18244872c87933 red=[653 653 653] ex=[163 326 163] err=<nil>
20x20 rows P=3 m=2 tol it=52 ud=3ea981c0587728c1 rr=bff0000000000000 u=9947c395f46ff6f2 red=[156 156 156] ex=[572 1144 572] err=<nil>
20x20 rows P=3 m=2 hook it=52 ud=3ea981c0587728c1 rr=3ed0eb187e8a55bb u=9947c395f46ff6f2 red=[209 209 209] ex=[572 1144 572] err=<nil>
20x20 rows P=3 m=3 tol it=30 ud=3ea9240883809fca rr=bff0000000000000 u=12f6a0df74a3a274 red=[90 90 90] ex=[480 960 480] err=<nil>
20x20 rows P=3 m=3 hook it=30 ud=3ea9240883809fca rr=3eb30ebc9f59bae3 u=12f6a0df74a3a274 red=[121 121 121] ex=[480 960 480] err=<nil>
20x20 rows P=4 m=0 tol it=163 ud=3eb029e1d041e7fb rr=bff0000000000000 u=0846ded8120b9af6 red=[489 489 489 489] ex=[163 326 326 163] err=<nil>
20x20 rows P=4 m=0 hook it=163 ud=3eb029e1d041e7fb rr=3f05afc4696d6476 u=0846ded8120b9af6 red=[653 653 653 653] ex=[163 326 326 163] err=<nil>
20x20 rows P=4 m=2 tol it=52 ud=3ea981c058779f24 rr=bff0000000000000 u=391d6ac1abc6e277 red=[156 156 156 156] ex=[572 1144 1144 572] err=<nil>
20x20 rows P=4 m=2 hook it=52 ud=3ea981c058779f24 rr=3ed0eb187e8a5729 u=391d6ac1abc6e277 red=[209 209 209 209] ex=[572 1144 1144 572] err=<nil>
20x20 rows P=4 m=3 tol it=30 ud=3ea924088380a2fd rr=bff0000000000000 u=7b4e1aaeef7af549 red=[90 90 90 90] ex=[480 960 960 480] err=<nil>
20x20 rows P=4 m=3 hook it=30 ud=3ea924088380a2fd rr=3eb30ebc9f59c0cf u=7b4e1aaeef7af549 red=[121 121 121 121] ex=[480 960 960 480] err=<nil>
20x20 cols P=1 m=0 tol it=163 ud=3ead805fa23c6402 rr=bff0000000000000 u=0ca270e2a237f871 red=[489] ex=[0] err=<nil>
20x20 cols P=1 m=0 hook it=163 ud=3ead805fa23c6402 rr=3f057ea110182394 u=0ca270e2a237f871 red=[653] ex=[0] err=<nil>
20x20 cols P=1 m=2 tol it=52 ud=3ea981c058775c89 rr=bff0000000000000 u=86d90532286ee074 red=[156] ex=[0] err=<nil>
20x20 cols P=1 m=2 hook it=52 ud=3ea981c058775c89 rr=3ed0eb187e8a5690 u=86d90532286ee074 red=[209] ex=[0] err=<nil>
20x20 cols P=1 m=3 tol it=30 ud=3ea9240883812bce rr=bff0000000000000 u=0cedec3a637d9f91 red=[90] ex=[0] err=<nil>
20x20 cols P=1 m=3 hook it=30 ud=3ea9240883812bce rr=3eb30ebc9f59a646 u=0cedec3a637d9f91 red=[121] ex=[0] err=<nil>
20x20 cols P=2 m=0 tol it=163 ud=3eaf66fe96eca46e rr=bff0000000000000 u=39f8d8610f2301a7 red=[489 489] ex=[163 163] err=<nil>
20x20 cols P=2 m=0 hook it=163 ud=3eaf66fe96eca46e rr=3f065d2d86ab46ff u=39f8d8610f2301a7 red=[653 653] ex=[163 163] err=<nil>
20x20 cols P=2 m=2 tol it=52 ud=3ea981c05877b443 rr=bff0000000000000 u=7d79726150bdb444 red=[156 156] ex=[572 572] err=<nil>
20x20 cols P=2 m=2 hook it=52 ud=3ea981c05877b443 rr=3ed0eb187e8a578a u=7d79726150bdb444 red=[209 209] ex=[572 572] err=<nil>
20x20 cols P=2 m=3 tol it=30 ud=3ea9240883812246 rr=bff0000000000000 u=5ce4b91e1cf7dbf1 red=[90 90] ex=[480 480] err=<nil>
20x20 cols P=2 m=3 hook it=30 ud=3ea9240883812246 rr=3eb30ebc9f59c475 u=5ce4b91e1cf7dbf1 red=[121 121] ex=[480 480] err=<nil>
20x20 cols P=3 m=0 tol it=163 ud=3eacc2a2d9f33e3d rr=bff0000000000000 u=5b4d161e5456c80c red=[489 489 489] ex=[163 326 163] err=<nil>
20x20 cols P=3 m=0 hook it=163 ud=3eacc2a2d9f33e3d rr=3f0655c30258d11d u=5b4d161e5456c80c red=[653 653 653] ex=[163 326 163] err=<nil>
20x20 cols P=3 m=2 tol it=52 ud=3ea981c05877d5ed rr=bff0000000000000 u=b3dd1b8170065a63 red=[156 156 156] ex=[572 1144 572] err=<nil>
20x20 cols P=3 m=2 hook it=52 ud=3ea981c05877d5ed rr=3ed0eb187e8a5864 u=b3dd1b8170065a63 red=[209 209 209] ex=[572 1144 572] err=<nil>
20x20 cols P=3 m=3 tol it=30 ud=3ea924088380cdfc rr=bff0000000000000 u=672dee5b21a3a874 red=[90 90 90] ex=[480 960 480] err=<nil>
20x20 cols P=3 m=3 hook it=30 ud=3ea924088380cdfc rr=3eb30ebc9f59bd93 u=672dee5b21a3a874 red=[121 121 121] ex=[480 960 480] err=<nil>
20x20 cols P=4 m=0 tol it=163 ud=3eae928b4c99cf1b rr=bff0000000000000 u=f7a9d9f24195dbfd red=[489 489 489 489] ex=[163 326 326 163] err=<nil>
20x20 cols P=4 m=0 hook it=163 ud=3eae928b4c99cf1b rr=3f063be409ef5dbc u=f7a9d9f24195dbfd red=[653 653 653 653] ex=[163 326 326 163] err=<nil>
20x20 cols P=4 m=2 tol it=52 ud=3ea981c05877bb10 rr=bff0000000000000 u=3dd2229d8c22df90 red=[156 156 156 156] ex=[572 1144 1144 572] err=<nil>
20x20 cols P=4 m=2 hook it=52 ud=3ea981c05877bb10 rr=3ed0eb187e8a576f u=3dd2229d8c22df90 red=[209 209 209 209] ex=[572 1144 1144 572] err=<nil>
20x20 cols P=4 m=3 tol it=30 ud=3ea9240883812720 rr=bff0000000000000 u=dd7b6418b77f81bb red=[90 90 90 90] ex=[480 960 960 480] err=<nil>
20x20 cols P=4 m=3 hook it=30 ud=3ea9240883812720 rr=3eb30ebc9f59cf17 u=dd7b6418b77f81bb red=[121 121 121 121] ex=[480 960 960 480] err=<nil>
12x13 blocks P=4 m=0 tol it=107 ud=3ea6e73af1b4ecca rr=bff0000000000000 u=156145c3b2e44677 red=[321 321 321 321] ex=[321 214 214 321] err=<nil>
12x13 blocks P=4 m=0 hook it=107 ud=3ea6e73af1b4ecca rr=3eec5a057d74e587 u=156145c3b2e44677 red=[429 429 429 429] ex=[321 214 214 321] err=<nil>
12x13 blocks P=4 m=2 tol it=33 ud=3e9d7eff45b2d7b1 rr=bff0000000000000 u=66c41dfb492164d4 red=[99 99 99 99] ex=[1089 726 726 1089] err=<nil>
12x13 blocks P=4 m=2 hook it=33 ud=3e9d7eff45b2d7b1 rr=3ebce2adf912cf48 u=66c41dfb492164d4 red=[133 133 133 133] ex=[1089 726 726 1089] err=<nil>
12x13 blocks P=4 m=3 tol it=19 ud=3e92a0d6d4c20502 rr=bff0000000000000 u=a9bd88e2826994ff red=[57 57 57 57] ex=[912 608 608 912] err=<nil>
12x13 blocks P=4 m=3 hook it=19 ud=3e92a0d6d4c20502 rr=3ea1fefb56ab189f u=a9bd88e2826994ff red=[77 77 77 77] ex=[912 608 608 912] err=<nil>
`
