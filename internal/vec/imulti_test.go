package vec

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
)

// kernelSets runs a check under both the portable and the active kernel
// sets.
func kernelSets(t *testing.T, f func(t *testing.T, impl *kernel.Impl)) {
	t.Helper()
	for _, im := range []*kernel.Impl{kernel.Portable(), kernel.Active()} {
		t.Run(im.Name, func(t *testing.T) { f(t, im) })
	}
}

func TestIMultiRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kernelSets(t, func(t *testing.T, impl *kernel.Impl) {
		for _, n := range []int{1, 7, 64, 65} {
			for _, s := range []int{1, 3, 8, 16} {
				src := randMulti(rng, n, s)
				im := src.Interleaved()
				for i := 0; i < n; i++ {
					for j := 0; j < s; j++ {
						if im.Data[i*im.Stride+j] != src.Col(j)[i] {
							t.Fatalf("n=%d s=%d: (%d,%d) interleave mismatch", n, s, i, j)
						}
					}
				}
				back := NewMulti(n, s)
				im.DeinterleaveInto(back, impl)
				for i := range back.Data {
					if back.Data[i] != src.Data[i] {
						t.Fatalf("n=%d s=%d: round-trip flat %d mismatch", n, s, i)
					}
				}
			}
		}
	})
}

func TestIMultiSwapScatterGather(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := randMulti(rng, 17, 5)
	im := src.Interleaved()
	im.SwapCols(1, 3)
	col := make([]float64, 17)
	im.ScatterCol(1, col)
	for i, v := range col {
		if v != src.Col(3)[i] {
			t.Fatalf("SwapCols/ScatterCol: row %d got %v want %v", i, v, src.Col(3)[i])
		}
	}
	im.GatherCol(4, src.Col(0))
	im.ScatterCol(4, col)
	for i, v := range col {
		if v != src.Col(0)[i] {
			t.Fatalf("GatherCol: row %d got %v want %v", i, v, src.Col(0)[i])
		}
	}
}

// TestIMultiKernelsMatchColumns pins the bit-parity contract: every fused
// interleaved operation equals its per-column scalar counterpart exactly.
func TestIMultiKernelsMatchColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	kernelSets(t, func(t *testing.T, impl *kernel.Impl) {
		for _, n := range []int{1, 9, 64, 65} {
			for _, s := range []int{1, 3, 8} {
				x, y := randMulti(rng, n, s), randMulti(rng, n, s)
				ix, iy := x.Interleaved(), y.Interleaved()
				as := make([]float64, s)
				for j := range as {
					as[j] = rng.NormFloat64()
				}

				dst := make([]float64, s)
				IMultiDot(ix, iy, dst, impl)
				for j := 0; j < s; j++ {
					if want := Dot(x.Col(j), y.Col(j)); dst[j] != want {
						t.Fatalf("IMultiDot n=%d s=%d col %d: got %v want %v", n, s, j, dst[j], want)
					}
				}

				IMultiNorm2(ix, dst, impl)
				for j := 0; j < s; j++ {
					if want := Norm2(x.Col(j)); dst[j] != want {
						t.Fatalf("IMultiNorm2 n=%d s=%d col %d: got %v want %v", n, s, j, dst[j], want)
					}
				}
				IMultiNormInf(ix, dst, impl)
				for j := 0; j < s; j++ {
					if want := NormInf(x.Col(j)); dst[j] != want {
						t.Fatalf("IMultiNormInf n=%d s=%d col %d: got %v want %v", n, s, j, dst[j], want)
					}
				}

				IMultiAxpy(as, ix, iy, impl)
				for j := 0; j < s; j++ {
					want := Clone(y.Col(j))
					Axpy(as[j], x.Col(j), want)
					col := make([]float64, n)
					iy.ScatterCol(j, col)
					for i := range col {
						if col[i] != want[i] {
							t.Fatalf("IMultiAxpy n=%d s=%d col %d row %d", n, s, j, i)
						}
					}
				}

				iy.InterleaveFrom(y, impl)
				IMultiXpay(ix, as, iy, impl)
				for j := 0; j < s; j++ {
					want := Clone(y.Col(j))
					Xpay(x.Col(j), as[j], want)
					col := make([]float64, n)
					iy.ScatterCol(j, col)
					for i := range col {
						if col[i] != want[i] {
							t.Fatalf("IMultiXpay n=%d s=%d col %d row %d", n, s, j, i)
						}
					}
				}
			}
		}
	})
}

// TestParIMultiDotMatchesParDot pins the parallel parity: the fused parallel
// panel dot uses ParDot's row chunking and combines partials in chunk order,
// so it equals ParDot on the gathered columns bit for bit — above and below
// the serial-fallback threshold.
func TestParIMultiDotMatchesParDot(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{100, MinParallelLen + 37} {
		for _, w := range []int{1, 3, 4} {
			x, y := randMulti(rng, n, 8), randMulti(rng, n, 8)
			ix, iy := x.Interleaved(), y.Interleaved()
			dst := make([]float64, 8)
			ParIMultiDot(ix, iy, w, dst, nil)
			for j := 0; j < 8; j++ {
				if want := ParDot(x.Col(j), y.Col(j), w); dst[j] != want {
					t.Fatalf("n=%d w=%d col %d: got %v want %v", n, w, j, dst[j], want)
				}
			}
			ParIMultiAxpy(dst, ix, iy, w, nil)
			ParIMultiXpay(ix, dst, iy, w, nil)
		}
	}
}

// TestIMultiConversionAllocFree guards the tile-boundary conversions: once
// the panel exists, moving a block in and out of interleaved form never
// allocates.
func TestIMultiConversionAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := randMulti(rng, 256, 8)
	im := NewIMulti(256, 8)
	if a := testing.AllocsPerRun(20, func() { im.InterleaveFrom(src, nil) }); a != 0 {
		t.Errorf("InterleaveFrom allocates %.1f per run", a)
	}
	if a := testing.AllocsPerRun(20, func() { im.DeinterleaveInto(src, nil) }); a != 0 {
		t.Errorf("DeinterleaveInto allocates %.1f per run", a)
	}
	col := make([]float64, 256)
	if a := testing.AllocsPerRun(20, func() { im.ScatterCol(3, col) }); a != 0 {
		t.Errorf("ScatterCol allocates %.1f per run", a)
	}
	if a := testing.AllocsPerRun(20, func() { im.SwapCols(2, 6) }); a != 0 {
		t.Errorf("SwapCols allocates %.1f per run", a)
	}
}

func TestIMultiShapeChecks(t *testing.T) {
	x := NewIMulti(4, 2)
	y := NewIMulti(4, 3)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on shape mismatch", name)
			}
		}()
		f()
	}
	mustPanic("IMultiDot", func() { IMultiDot(x, y, make([]float64, 2), nil) })
	mustPanic("InterleaveFrom", func() { x.InterleaveFrom(NewMulti(4, 3), nil) })
	mustPanic("scalars", func() { IMultiNorm2(x, make([]float64, 1), nil) })
	if math.IsNaN(0) {
		t.Fatal("unreachable")
	}
}
