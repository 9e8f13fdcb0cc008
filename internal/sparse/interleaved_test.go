package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/vec"
)

// TestMulMatIToMatchesMulMatTo pins the layout-parity contract: the
// interleaved SpMM equals the column-contiguous SpMM bit for bit, for both
// kernel sets, across shapes straddling the unroll widths.
func TestMulMatIToMatchesMulMatTo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, impl := range []*kernel.Impl{kernel.Portable(), kernel.Active()} {
		for _, n := range []int{1, 9, 64, 65} {
			for _, s := range []int{1, 3, 8, 16} {
				a := randSquareCSR(rng, n, 0.2)
				x := vec.NewMulti(n, s)
				for i := range x.Data {
					x.Data[i] = rng.NormFloat64()
				}
				want := vec.NewMulti(n, s)
				a.MulMatTo(want, x)

				ix := x.Interleaved()
				idst := vec.NewIMulti(n, s)
				a.MulMatITo(idst, ix, impl)
				got := vec.NewMulti(n, s)
				idst.DeinterleaveInto(got, impl)
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%s n=%d s=%d: flat %d got %v want %v", impl.Name, n, s, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestParMulMatIToMatchesSerial checks the parallel interleaved products are
// bitwise identical to serial (contiguous row blocks, no reassociation).
func TestParMulMatIToMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, s := 200, 8
	a := randSquareCSR(rng, n, 0.1)
	x := vec.NewIMulti(n, s)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	want := vec.NewIMulti(n, s)
	a.MulMatITo(want, x, nil)
	for _, w := range []int{1, 2, 5} {
		got := vec.NewIMulti(n, s)
		a.ParMulMatITo(got, x, w, nil)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: flat %d differs", w, i)
			}
		}
	}
}

// TestMulMatIToAllocFree guards the serial interleaved products'
// zero-allocation property (the tile hot path).
func TestMulMatIToAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, s := 128, 8
	a := randSquareCSR(rng, n, 0.1)
	x, dst := vec.NewIMulti(n, s), vec.NewIMulti(n, s)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	if al := testing.AllocsPerRun(20, func() { a.MulMatITo(dst, x, nil) }); al != 0 {
		t.Errorf("CSR.MulMatITo allocates %.1f per run", al)
	}
	if al := testing.AllocsPerRun(20, func() { a.ParMulMatITo(dst, x, 1, nil) }); al != 0 {
		t.Errorf("CSR.ParMulMatITo(w=1) allocates %.1f per run", al)
	}
}

func TestMulMatIToDimsPanic(t *testing.T) {
	a := randSquareCSR(rand.New(rand.NewSource(14)), 6, 0.3)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	a.MulMatITo(vec.NewIMulti(5, 2), vec.NewIMulti(6, 2), nil)
}
