package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// The agreement tests pin the package's numerical contract: every kernel
// set produces bit-identical results on every shape, because no variant
// reassociates a per-column reduction. Dot-like kernels go through ulpEqual
// so a future genuinely-reassociating variant can relax its bound in one
// place; today the allowed distance is 0 ULPs everywhere.

// testSizes crosses the shapes that exercise every unroll remainder: below,
// at and above the 4-wide vector unroll and the 8-wide column tile.
var (
	testN = []int{1, 7, 8, 9, 63, 64, 65}
	testS = []int{1, 2, 3, 8, 16}
)

// sets returns every kernel set: the portable reference and the unrolled
// set every solve runs.
func sets() map[string]*Impl {
	return map[string]*Impl{
		"portable": Portable(),
		"unrolled": &unrolledImpl,
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// ulpEqual reports whether a and b are within dist representable float64s
// of each other (0 = bit-identical, with −0 ≡ +0).
func ulpEqual(a, b float64, dist uint64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	ia, ib := ordered(a), ordered(b)
	d := ia - ib
	if ib > ia {
		d = ib - ia
	}
	return d <= dist
}

// ordered maps a float64 onto the monotone integer line (negatives
// reflected), so ULP distance is plain integer distance.
func ordered(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

func TestUlpHelper(t *testing.T) {
	if !ulpEqual(1.0, 1.0, 0) || !ulpEqual(0.0, math.Copysign(0, -1), 0) {
		t.Fatal("ulpEqual rejects equal values")
	}
	next := math.Nextafter(1.0, 2.0)
	if ulpEqual(1.0, next, 0) {
		t.Fatal("ulpEqual(…, 0) accepts a 1-ULP difference")
	}
	if !ulpEqual(1.0, next, 1) {
		t.Fatal("ulpEqual(…, 1) rejects a 1-ULP difference")
	}
	if ulpEqual(math.NaN(), math.NaN(), 64) {
		t.Fatal("ulpEqual accepts NaN")
	}
}

func TestDotAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testN {
		x, y := randSlice(rng, n), randSlice(rng, n)
		want := portableDot(x, y)
		for name, im := range sets() {
			if got := im.Dot(x, y); !ulpEqual(got, want, 0) {
				t.Errorf("%s.Dot n=%d: got %v want %v", name, n, got, want)
			}
		}
	}
}

func TestGatherDot32Agreement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range testN {
		x := randSlice(rng, n)
		nnz := 3*n + 1
		val := randSlice(rng, nnz)
		idx := make([]int32, nnz)
		for k := range idx {
			idx[k] = int32(rng.Intn(n))
		}
		want := portableGatherDot32(val, idx, x)
		for name, im := range sets() {
			if got := im.GatherDot32(val, idx, x); !ulpEqual(got, want, 0) {
				t.Errorf("%s.GatherDot32 n=%d: got %v want %v", name, n, got, want)
			}
		}
	}
}

func TestAxpyXpayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testN {
		x, y0 := randSlice(rng, n), randSlice(rng, n)
		a := rng.NormFloat64()
		want := append([]float64(nil), y0...)
		portableAxpy(a, x, want)
		for name, im := range sets() {
			y := append([]float64(nil), y0...)
			im.Axpy(a, x, y)
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("%s.Axpy n=%d: y[%d]=%v want %v", name, n, i, y[i], want[i])
				}
			}
		}
		want = append(want[:0:0], y0...)
		portableXpay(x, a, want)
		for name, im := range sets() {
			y := append([]float64(nil), y0...)
			im.Xpay(x, a, y)
			for i := range y {
				if y[i] != want[i] {
					t.Fatalf("%s.Xpay n=%d: y[%d]=%v want %v", name, n, i, y[i], want[i])
				}
			}
		}
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range testN {
		for _, s := range testS {
			for _, st := range []int{s, s + 3} {
				src := randSlice(rng, n*s)
				for name, im := range sets() {
					panel := make([]float64, n*st)
					im.Interleave(panel, st, src, n, s)
					for i := 0; i < n; i++ {
						for j := 0; j < s; j++ {
							if panel[i*st+j] != src[j*n+i] {
								t.Fatalf("%s.Interleave n=%d s=%d st=%d: (%d,%d) mismatch", name, n, s, st, i, j)
							}
						}
					}
					back := make([]float64, n*s)
					im.Deinterleave(back, n, s, panel, st)
					for i := range back {
						if back[i] != src[i] {
							t.Fatalf("%s round trip n=%d s=%d st=%d: flat %d mismatch", name, n, s, st, i)
						}
					}
				}
			}
		}
	}
}

func TestPanelKernelsAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range testN {
		for _, s := range testS {
			for _, st := range []int{s, s + 3} {
				x, y0 := randSlice(rng, n*st), randSlice(rng, n*st)
				as := randSlice(rng, s)

				want := make([]float64, s)
				portableDotI(x, y0, st, n, s, want)
				got := make([]float64, s)
				for name, im := range sets() {
					im.DotI(x, y0, st, n, s, got)
					for j := 0; j < s; j++ {
						if !ulpEqual(got[j], want[j], 0) {
							t.Fatalf("%s.DotI n=%d s=%d st=%d col %d: got %v want %v", name, n, s, st, j, got[j], want[j])
						}
					}
				}

				portableNorm := make([]float64, s)
				norm2I(x, st, n, s, portableNorm)
				normInfI(x, st, n, s, got)
				for j := 0; j < s; j++ {
					// the interleaved norms must match vec's scalar
					// recurrences on the gathered column
					col := make([]float64, n)
					for i := 0; i < n; i++ {
						col[i] = x[i*st+j]
					}
					var scale, ssq = 0.0, 1.0
					var inf float64
					for _, v := range col {
						if a := math.Abs(v); a > inf {
							inf = a
						}
						if v == 0 {
							continue
						}
						a := math.Abs(v)
						if scale < a {
							r := scale / a
							ssq = 1 + ssq*r*r
							scale = a
						} else {
							r := a / scale
							ssq += r * r
						}
					}
					if w := scale * math.Sqrt(ssq); portableNorm[j] != w {
						t.Fatalf("Norm2I n=%d s=%d st=%d col %d: got %v want %v", n, s, st, j, portableNorm[j], w)
					}
					if got[j] != inf {
						t.Fatalf("NormInfI n=%d s=%d st=%d col %d: got %v want %v", n, s, st, j, got[j], inf)
					}
				}

				wantY := append([]float64(nil), y0...)
				portableAxpyI(as, x, wantY, st, n, s)
				for name, im := range sets() {
					y := append([]float64(nil), y0...)
					im.AxpyI(as, x, y, st, n, s)
					for i := range y {
						if y[i] != wantY[i] {
							t.Fatalf("%s.AxpyI n=%d s=%d st=%d: flat %d mismatch", name, n, s, st, i)
						}
					}
				}
				wantY = append(wantY[:0:0], y0...)
				portableXpayI(x, as, wantY, st, n, s)
				for name, im := range sets() {
					y := append([]float64(nil), y0...)
					im.XpayI(x, as, y, st, n, s)
					for i := range y {
						if y[i] != wantY[i] {
							t.Fatalf("%s.XpayI n=%d s=%d st=%d: flat %d mismatch", name, n, s, st, i)
						}
					}
				}
			}
		}
	}
}

// randCSR builds a random n×n pattern with sorted columns, ~nnzPerRow
// entries per row, and a guaranteed diagonal entry (so the sweep can divide
// by it).
func randCSR(rng *rand.Rand, n, nnzPerRow int) (rowptr, colidx []int, val []float64) {
	rowptr = make([]int, n+1)
	for i := 0; i < n; i++ {
		cols := map[int]bool{i: true}
		for k := 0; k < nnzPerRow; k++ {
			cols[rng.Intn(n)] = true
		}
		sorted := make([]int, 0, len(cols))
		for c := range cols {
			sorted = append(sorted, c)
		}
		for a := 1; a < len(sorted); a++ {
			for b := a; b > 0 && sorted[b] < sorted[b-1]; b-- {
				sorted[b], sorted[b-1] = sorted[b-1], sorted[b]
			}
		}
		for _, c := range sorted {
			colidx = append(colidx, c)
			v := rng.NormFloat64()
			if c == i {
				v = 4 + math.Abs(v) // dominant positive diagonal
			}
			val = append(val, v)
		}
		rowptr[i+1] = len(colidx)
	}
	return rowptr, colidx, val
}

func TestSpMMCSRIAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range testN {
		rowptr, colidx, val := randCSR(rng, n, 4)
		for _, s := range testS {
			for _, st := range []int{s, s + 3} {
				xcols := randSlice(rng, n*s) // column-contiguous reference input
				x := make([]float64, n*st)
				portableInterleave(x, st, xcols, n, s)

				// Column-major reference: the shared tiled loop the CSR
				// operator itself runs.
				ref := make([]float64, n*s)
				SpMMCSRCols(rowptr, colidx, val, xcols, n, ref, n, 0, n, s)

				for name, im := range sets() {
					dst := make([]float64, n*st)
					im.SpMMCSRI(rowptr, colidx, val, x, st, dst, st, 0, n, s)
					for i := 0; i < n; i++ {
						for j := 0; j < s; j++ {
							if got, want := dst[i*st+j], ref[j*n+i]; !ulpEqual(got, want, 0) {
								t.Fatalf("%s.SpMMCSRI n=%d s=%d st=%d (%d,%d): got %v want %v", name, n, s, st, i, j, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// diagPositions returns each row's diagonal entry position — the
// SweepArgs.DiagPos the splitting computes (randCSR always stores the
// diagonal).
func diagPositions(rowptr, colidx []int) []int {
	n := len(rowptr) - 1
	pos := make([]int, n)
	for i := 0; i < n; i++ {
		for k := rowptr[i]; k < rowptr[i+1]; k++ {
			if colidx[k] == i {
				pos[i] = k
			}
		}
	}
	return pos
}

// sweepStarts partitions [0, n) into ng contiguous groups.
func sweepStarts(n, ng int) []int {
	if ng > n {
		ng = n
	}
	start := make([]int, ng+1)
	for c := 0; c <= ng; c++ {
		start[c] = c * n / ng
	}
	return start
}

// sweepCSRCols is the independent reference the interleaved sweeps of every
// kernel set are checked against: the full m-step Conrad–Wallach multicolor
// sweep over column-contiguous multivectors rhat, r with cache block y (each
// n×s, column stride n; rhat and y are zeroed on entry), written with its
// own column-tiled loops. Column j reproduces the scalar ApplyMStep on
// column j exactly (−a−b ≡ −(a+b) in IEEE arithmetic, negation being
// exact).
func sweepCSRCols(a *SweepArgs, rhat, r, y []float64, n, s int) {
	m := len(a.Alphas)
	ng := len(a.Start) - 1
	for i := range rhat[:n*s] {
		rhat[i] = 0
		y[i] = 0
	}
	for step := 1; step <= m; step++ {
		alpha := a.Alphas[m-step]
		// Forward half-sweep: x = fresh lower block sums, y = cached upper
		// sums from the previous backward half-sweep.
		for c := 0; c < ng; c++ {
			lo, hi := a.Start[c], a.Start[c+1]
			cache := c < ng-1
			for i := lo; i < hi; i++ {
				rowStart, dp := a.RowPtr[i], a.DiagPos[i]
				di := a.Diag[i]
				for c0 := 0; c0 < s; c0 += colTile {
					cw := tileSpan(s, c0)
					var sums [colTile]float64
					for p := rowStart; p < dp; p++ {
						v := a.Val[p]
						base := c0*n + a.ColIdx[p]
						for t := 0; t < cw; t++ {
							sums[t] -= v * rhat[base]
							base += n
						}
					}
					base := c0*n + i
					for t := 0; t < cw; t++ {
						x := sums[t]
						rhat[base] = (x + y[base] + alpha*r[base]) / di
						if cache {
							y[base] = x
						}
						base += n
					}
				}
			}
		}
		// Backward half-sweep: colors descending, skipping the last color
		// (identical re-solve); the color-1 solve is elided until the final
		// step. x = fresh upper block sums, y = cached lower sums from the
		// forward half-sweep.
		for c := ng - 2; c >= 0; c-- {
			lo, hi := a.Start[c], a.Start[c+1]
			solve := c > 0 || step == m
			for i := lo; i < hi; i++ {
				dp, rowEnd := a.DiagPos[i], a.RowPtr[i+1]
				di := a.Diag[i]
				for c0 := 0; c0 < s; c0 += colTile {
					cw := tileSpan(s, c0)
					var sums [colTile]float64
					for p := rowEnd - 1; p > dp; p-- {
						v := a.Val[p]
						base := c0*n + a.ColIdx[p]
						for t := 0; t < cw; t++ {
							sums[t] -= v * rhat[base]
							base += n
						}
					}
					base := c0*n + i
					for t := 0; t < cw; t++ {
						x := sums[t]
						if solve {
							rhat[base] = (x + y[base] + alpha*r[base]) / di
						}
						y[base] = x
						base += n
					}
				}
			}
		}
	}
}

func TestSweepCSRIAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range testN {
		rowptr, colidx, val := randCSR(rng, n, 3)
		diag := make([]float64, n)
		for i := 0; i < n; i++ {
			for k := rowptr[i]; k < rowptr[i+1]; k++ {
				if colidx[k] == i {
					diag[i] = val[k]
				}
			}
		}
		for _, m := range []int{1, 3} {
			alphas := randSlice(rng, m)
			args := &SweepArgs{RowPtr: rowptr, ColIdx: colidx, Val: val,
				Start: sweepStarts(n, 6), Diag: diag, DiagPos: diagPositions(rowptr, colidx), Alphas: alphas}
			for _, s := range testS {
				for _, st := range []int{s, s + 3} {
					rcols := randSlice(rng, n*s)
					r := make([]float64, n*st)
					portableInterleave(r, st, rcols, n, s)

					// Column-major reference.
					refRhat := make([]float64, n*s)
					refY := make([]float64, n*s)
					sweepCSRCols(args, refRhat, rcols, refY, n, s)

					for name, im := range sets() {
						rhat := make([]float64, n*st)
						y := make([]float64, n*st)
						im.SweepCSRI(args, rhat, r, y, st, n, s)
						for i := 0; i < n; i++ {
							for j := 0; j < s; j++ {
								if got, want := rhat[i*st+j], refRhat[j*n+i]; got != want {
									t.Fatalf("%s.SweepCSRI n=%d m=%d s=%d st=%d (%d,%d): got %v want %v", name, n, m, s, st, i, j, got, want)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestDispatchAllocFree guards the steady-state zero-allocation property of
// every dispatch entry in every set, plus the layout conversions. The sweep
// runs on eight columns and on one (s = stride = 1, the body
// SixColorSSOR.ApplyMStep runs).
func TestDispatchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, s, st := 64, 8, 8
	x, y := randSlice(rng, n*st), randSlice(rng, n*st)
	cols := randSlice(rng, n*s)
	as := randSlice(rng, s)
	dst := make([]float64, s)
	rowptr, colidx, val := randCSR(rng, n, 4)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 4
	}
	args := &SweepArgs{RowPtr: rowptr, ColIdx: colidx, Val: val,
		Start: sweepStarts(n, 6), Diag: diag, DiagPos: diagPositions(rowptr, colidx), Alphas: []float64{1, 1}}
	idx := make([]int32, n)
	for k := range idx {
		idx[k] = int32(k)
	}
	spmmY := make([]float64, n*st)
	sweepY := make([]float64, n*st)

	var sink float64
	for name, im := range sets() {
		checks := map[string]func(){
			"Dot":          func() { sink += im.Dot(x[:n], y[:n]) },
			"Axpy":         func() { im.Axpy(2, x[:n], y[:n]) },
			"Xpay":         func() { im.Xpay(x[:n], 2, y[:n]) },
			"GatherDot32":  func() { sink += im.GatherDot32(val[:n], idx, x[:n]) },
			"Interleave":   func() { im.Interleave(y, st, cols, n, s) },
			"Deinterleave": func() { im.Deinterleave(cols, n, s, y, st) },
			"DotI":         func() { im.DotI(x, y, st, n, s, dst) },
			"AxpyI":        func() { im.AxpyI(as, x, y, st, n, s) },
			"XpayI":        func() { im.XpayI(x, as, y, st, n, s) },
			"Norm2I":       func() { im.Norm2I(x, st, n, s, dst) },
			"NormInfI":     func() { im.NormInfI(x, st, n, s, dst) },
			"SpMMCSRI":     func() { im.SpMMCSRI(rowptr, colidx, val, x, st, spmmY, st, 0, n, s) },
			"SweepCSRI":    func() { im.SweepCSRI(args, spmmY, x, sweepY, st, n, s) },
			"SweepCSRI/1":  func() { im.SweepCSRI(args, spmmY[:n], x[:n], sweepY[:n], 1, n, 1) },
		}
		for entry, fn := range checks {
			if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
				t.Errorf("%s.%s allocates %.1f per run", name, entry, allocs)
			}
		}
	}
	_ = sink
}

// TestSelectAndValidName: every valid set name a plan can report selects
// the set of that name, so a benchmark can map a plan back to its kernels.
func TestSelectAndValidName(t *testing.T) {
	for _, im := range []*Impl{Portable(), Active()} {
		if got := Select(im.Name); got != im || got.Name != im.Name {
			t.Errorf("Select(%q) = %q set", im.Name, got.Name)
		}
	}
	if Select("") != Active() {
		t.Error("Select of an empty name is not the active set")
	}
	if Active() != &unrolledImpl || Active().Name != "unrolled" {
		t.Errorf("active set is %q, want the unrolled set", Active().Name)
	}
}

// FuzzSpMMCSRI cross-checks the interleaved SpMM kernels against the
// column-major tiled loop on random CSR patterns.
func FuzzSpMMCSRI(f *testing.F) {
	f.Add(int64(1), 8, 8, 3)
	f.Add(int64(2), 1, 1, 0)
	f.Add(int64(3), 65, 16, 5)
	f.Add(int64(4), 9, 3, 2)
	f.Fuzz(func(t *testing.T, seed int64, n, s, fill int) {
		if n < 1 || n > 128 || s < 1 || s > 24 || fill < 0 || fill > 16 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		rowptr, colidx, val := randCSR(rng, n, fill)
		st := s + rng.Intn(3)
		xcols := randSlice(rng, n*s)
		x := make([]float64, n*st)
		portableInterleave(x, st, xcols, n, s)
		ref := make([]float64, n*s)
		SpMMCSRCols(rowptr, colidx, val, xcols, n, ref, n, 0, n, s)
		for name, im := range sets() {
			dst := make([]float64, n*st)
			im.SpMMCSRI(rowptr, colidx, val, x, st, dst, st, 0, n, s)
			for i := 0; i < n; i++ {
				for j := 0; j < s; j++ {
					if got, want := dst[i*st+j], ref[j*n+i]; !ulpEqual(got, want, 0) {
						t.Fatalf("%s n=%d s=%d st=%d (%d,%d): got %v want %v", name, n, s, st, i, j, got, want)
					}
				}
			}
		}
	})
}

// FuzzSweepCSRI cross-checks the interleaved m-step sweeps of every set
// against the column-major sweepCSRCols on random CSR patterns with a stored
// diagonal, random color groups and panel strides up to two wider than the
// live width.
func FuzzSweepCSRI(f *testing.F) {
	f.Add(int64(1), 8, 8, 3, 3)
	f.Add(int64(2), 1, 1, 0, 1)
	f.Add(int64(3), 65, 16, 5, 2)
	f.Add(int64(4), 9, 3, 2, 3)
	f.Add(int64(5), 40, 24, 4, 1)
	f.Add(int64(6), 33, 9, 6, 2)
	f.Fuzz(func(t *testing.T, seed int64, n, s, fill, m int) {
		if n < 1 || n > 128 || s < 1 || s > 24 || fill < 0 || fill > 16 || m < 1 || m > 4 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		rowptr, colidx, val := randCSR(rng, n, fill)
		pos := diagPositions(rowptr, colidx)
		diag := make([]float64, n)
		for i, p := range pos {
			diag[i] = val[p]
		}
		args := &SweepArgs{RowPtr: rowptr, ColIdx: colidx, Val: val,
			Start: sweepStarts(n, 1+rng.Intn(8)), Diag: diag, DiagPos: pos, Alphas: randSlice(rng, m)}
		st := s + rng.Intn(3)
		rcols := randSlice(rng, n*s)
		r := make([]float64, n*st)
		portableInterleave(r, st, rcols, n, s)
		ref := make([]float64, n*s)
		sweepCSRCols(args, ref, rcols, make([]float64, n*s), n, s)
		for name, im := range sets() {
			rhat := make([]float64, n*st)
			im.SweepCSRI(args, rhat, r, make([]float64, n*st), st, n, s)
			for i := 0; i < n; i++ {
				for j := 0; j < s; j++ {
					if got, want := rhat[i*st+j], ref[j*n+i]; got != want {
						t.Fatalf("%s n=%d s=%d st=%d m=%d (%d,%d): got %v want %v", name, n, s, st, m, i, j, got, want)
					}
				}
			}
		}
	})
}
