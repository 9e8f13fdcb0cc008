package vec

import (
	"math"
	"math/rand"
	"testing"
)

func randMulti(rng *rand.Rand, n, s int) *Multi {
	m := NewMulti(n, s)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMultiColsShareStorage(t *testing.T) {
	m := NewMulti(4, 3)
	m.Col(1)[2] = 7
	if m.Data[1*4+2] != 7 {
		t.Fatalf("Col(1) does not alias backing storage")
	}
	cols := m.Cols()
	cols[2][0] = 3
	if m.Col(2)[0] != 3 {
		t.Fatalf("Cols() does not alias backing storage")
	}
}

func TestMultiFromCols(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	m := MultiFromCols([][]float64{a, b})
	if m.N != 3 || m.S != 2 {
		t.Fatalf("shape %d×%d, want 3×2", m.N, m.S)
	}
	a[0] = 99 // copies, not views
	if m.Col(0)[0] != 1 {
		t.Fatalf("MultiFromCols must copy")
	}
}

func TestMultiPrefixAndSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMulti(rng, 5, 4)
	col1 := Clone(m.Col(1))
	col3 := Clone(m.Col(3))
	m.SwapCols(1, 3)
	for i := range col1 {
		if m.Col(3)[i] != col1[i] || m.Col(1)[i] != col3[i] {
			t.Fatalf("SwapCols mismatch at %d", i)
		}
	}
	p := m.Prefix(2)
	if p.S != 2 || p.N != 5 {
		t.Fatalf("Prefix shape %d×%d", p.N, p.S)
	}
	p.Col(1)[0] = 42
	if m.Col(1)[0] != 42 {
		t.Fatalf("Prefix must share storage")
	}
}

// TestMultiKernelsMatchScalar checks every fused kernel against its
// single-vector counterpart applied per column, serially and in parallel.
func TestMultiKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 7, 5000} { // 5000 crosses MinParallelLen
		for _, s := range []int{1, 3, 8} {
			x := randMulti(rng, n, s)
			y := randMulti(rng, n, s)
			alphas := make([]float64, s)
			for j := range alphas {
				alphas[j] = rng.NormFloat64()
			}

			want := make([]float64, s)
			for j := 0; j < s; j++ {
				want[j] = Dot(x.Col(j), y.Col(j))
			}
			got := make([]float64, s)
			MultiDot(x, y, got)
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("MultiDot n=%d s=%d col %d: %g != %g", n, s, j, got[j], want[j])
				}
			}
			ParMultiDot(x, y, 4, got)
			for j := range got {
				if math.Abs(got[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
					t.Fatalf("ParMultiDot n=%d s=%d col %d: %g != %g", n, s, j, got[j], want[j])
				}
			}

			// MultiAxpy vs per-column Axpy.
			y1, y2 := y.Clone(), y.Clone()
			MultiAxpy(alphas, x, y1)
			for j := 0; j < s; j++ {
				Axpy(alphas[j], x.Col(j), y2.Col(j))
			}
			for i := range y1.Data {
				if y1.Data[i] != y2.Data[i] {
					t.Fatalf("MultiAxpy n=%d s=%d elem %d", n, s, i)
				}
			}
			y3 := y.Clone()
			ParMultiAxpy(alphas, x, y3, 4)
			for i := range y3.Data {
				if y3.Data[i] != y2.Data[i] {
					t.Fatalf("ParMultiAxpy n=%d s=%d elem %d", n, s, i)
				}
			}

			// MultiXpay vs per-column Xpay.
			y1, y2 = y.Clone(), y.Clone()
			MultiXpay(x, alphas, y1)
			for j := 0; j < s; j++ {
				Xpay(x.Col(j), alphas[j], y2.Col(j))
			}
			for i := range y1.Data {
				if y1.Data[i] != y2.Data[i] {
					t.Fatalf("MultiXpay n=%d s=%d elem %d", n, s, i)
				}
			}
			y3 = y.Clone()
			ParMultiXpay(x, alphas, y3, 4)
			for i := range y3.Data {
				if y3.Data[i] != y2.Data[i] {
					t.Fatalf("ParMultiXpay n=%d s=%d elem %d", n, s, i)
				}
			}

			MultiNorm2(x, got)
			MultiNormInf(x, want) // reuse buffers
			for j := 0; j < s; j++ {
				if got[j] != Norm2(x.Col(j)) {
					t.Fatalf("MultiNorm2 col %d", j)
				}
				if want[j] != NormInf(x.Col(j)) {
					t.Fatalf("MultiNormInf col %d", j)
				}
			}
		}
	}
}

func TestMultiMaxAbsDiff(t *testing.T) {
	x := MultiFromCols([][]float64{{1, 2}, {3, 4}})
	y := MultiFromCols([][]float64{{1, 2.5}, {3, 4}})
	if d := MultiMaxAbsDiff(x, y); d != 0.5 {
		t.Fatalf("MultiMaxAbsDiff = %g, want 0.5", d)
	}
}

func TestMultiShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected shape-mismatch panic")
		}
	}()
	MultiDot(NewMulti(3, 2), NewMulti(3, 3), make([]float64, 2))
}
