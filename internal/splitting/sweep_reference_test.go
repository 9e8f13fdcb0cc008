package splitting

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// groupBoundSSOR is the reference the sweeps are pinned to: the m-step
// application as it was written before the splitting recorded diagonal
// positions, with block sums that scan each row until a column crosses the
// color group's bound. The method bodies are kept verbatim, so the tests
// below prove that splitting each row at its diagonal entry changed no bit
// of any answer.
type groupBoundSSOR struct {
	K     *sparse.CSR
	Start []int
	d     []float64
	y     []float64
	omega float64
}

func newGroupBoundSSOR(k *sparse.CSR, start []int, omega float64) *groupBoundSSOR {
	return &groupBoundSSOR{K: k, Start: start, d: k.Diag(), y: make([]float64, k.Rows), omega: omega}
}

func (s *groupBoundSSOR) numGroups() int { return len(s.Start) - 1 }

func (s *groupBoundSSOR) lowerSum(i, groupLo int, rhat []float64) float64 {
	var sum float64
	for p := s.K.RowPtr[i]; p < s.K.RowPtr[i+1]; p++ {
		j := s.K.ColIdx[p]
		if j >= groupLo {
			break // columns are sorted; rest are within-group or upper
		}
		sum += s.K.Val[p] * rhat[j]
	}
	return -sum
}

func (s *groupBoundSSOR) upperSum(i, groupHi int, rhat []float64) float64 {
	var sum float64
	for p := s.K.RowPtr[i+1] - 1; p >= s.K.RowPtr[i]; p-- {
		j := s.K.ColIdx[p]
		if j < groupHi {
			break
		}
		sum += s.K.Val[p] * rhat[j]
	}
	return -sum
}

func (s *groupBoundSSOR) Step(rhat, r []float64, alpha float64) {
	ng := s.numGroups()
	w := s.omega
	for c := 0; c < ng; c++ {
		lo, hi := s.Start[c], s.Start[c+1]
		for i := lo; i < hi; i++ {
			x := s.lowerSum(i, lo, rhat)
			u := s.upperSum(i, hi, rhat)
			rhat[i] = (1-w)*rhat[i] + w*(x+u+alpha*r[i])/s.d[i]
		}
	}
	for c := ng - 1; c >= 0; c-- {
		lo, hi := s.Start[c], s.Start[c+1]
		for i := lo; i < hi; i++ {
			x := s.lowerSum(i, lo, rhat)
			u := s.upperSum(i, hi, rhat)
			rhat[i] = (1-w)*rhat[i] + w*(x+u+alpha*r[i])/s.d[i]
		}
	}
}

func (s *groupBoundSSOR) ApplyMStep(rhat, r []float64, alphas []float64) {
	m := len(alphas)
	if m < 1 {
		panic("splitting: ApplyMStep needs at least one step")
	}
	if s.omega != 1 {
		// The dead-solve elisions rely on Gauss–Seidel idempotence, which
		// fails under relaxation; fall back to strict parametrized steps.
		for i := range rhat {
			rhat[i] = 0
		}
		for step := 1; step <= m; step++ {
			s.Step(rhat, r, alphas[m-step])
		}
		return
	}
	ng := s.numGroups()
	for i := range rhat {
		rhat[i] = 0
		s.y[i] = 0
	}
	for step := 1; step <= m; step++ {
		alpha := alphas[m-step]
		// Forward half-sweep: colors ascending. x = fresh lower sum,
		// y[i] = cached upper sum from the previous backward half-sweep.
		// The last color has an empty upper sum and no backward re-solve,
		// so its cache must remain 0 rather than hold the lower sum.
		for c := 0; c < ng; c++ {
			lo, hi := s.Start[c], s.Start[c+1]
			cache := c < ng-1
			for i := lo; i < hi; i++ {
				x := s.lowerSum(i, lo, rhat)
				rhat[i] = (x + s.y[i] + alpha*r[i]) / s.d[i]
				if cache {
					s.y[i] = x
				}
			}
		}
		// Backward half-sweep: colors descending, skipping the last color
		// (identical re-solve). x = fresh upper sum, y[i] = cached lower
		// sum from the forward half-sweep.
		for c := ng - 2; c >= 0; c-- {
			lo, hi := s.Start[c], s.Start[c+1]
			solve := c > 0 || step == m
			for i := lo; i < hi; i++ {
				x := s.upperSum(i, hi, rhat)
				if solve {
					rhat[i] = (x + s.y[i] + alpha*r[i]) / s.d[i]
				}
				s.y[i] = x
			}
		}
	}
}

// bandedMulticolor builds a random SPD system in multicolor form: groups
// contiguous blocks of size sz, couplings only on diagonal offsets at least
// one group wide (so each group's block is diagonal), diagonals not fully
// dense, strictly diagonally dominant.
func bandedMulticolor(rng *rand.Rand, groups, sz int) (*sparse.CSR, []int) {
	n := groups * sz
	coo := sparse.NewCOO(n, n)
	rowAbs := make([]float64, n)
	for _, d := range []int{sz, sz + 1, 2 * sz} {
		for i := 0; i+d < n; i++ {
			if rng.Float64() < 0.2 {
				continue
			}
			v := rng.Float64()*2 - 1
			coo.Add(i, i+d, v)
			coo.Add(i+d, i, v)
			rowAbs[i] += math.Abs(v)
			rowAbs[i+d] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, rowAbs[i]+1)
	}
	start := make([]int, groups+1)
	for g := range start {
		start[g] = g * sz
	}
	return coo.ToCSR(), start
}

// sameBits reports whether got equals want bit for bit (so +0 ≠ −0).
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestSweepsMatchGroupBoundReference pins every m-step sweep form to the
// group-bound reference, bitwise and column by column: the scalar
// ApplyMStep and the interleaved ApplyMStepInterleaved under both kernel
// sets, on panels whose stride is the width or one more (a panel after one
// column retired).
func TestSweepsMatchGroupBoundReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type system struct {
		name  string
		k     *sparse.CSR
		start []int
	}
	var systems []system
	for _, size := range []int{9, 16, 40} {
		k, start, _ := coloredPlate(t, size, size)
		systems = append(systems, system{fmt.Sprintf("plate %d²", size), k, start})
	}
	bk, bstart := bandedMulticolor(rng, 6, 40)
	systems = append(systems, system{"banded multicolor", bk, bstart})

	impls := []*kernel.Impl{kernel.Portable(), kernel.Active()}
	for _, sys := range systems {
		s, err := NewSixColorSSOR(sys.k, sys.start)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		ref := newGroupBoundSSOR(sys.k, sys.start, 1)
		n := s.N()
		for _, m := range []int{1, 2, 3} {
			alphas := make([]float64, m)
			for i := range alphas {
				alphas[i] = 0.5 + rng.Float64()
			}
			for _, cols := range []int{1, 3, 4, 7, 8, 9, 16, 24} {
				r := vec.NewMulti(n, cols)
				for i := range r.Data {
					r.Data[i] = rng.NormFloat64()
				}
				want := vec.NewMulti(n, cols)
				for j := 0; j < cols; j++ {
					ref.ApplyMStep(want.Col(j), r.Col(j), alphas)
				}
				check := func(form string, j int, got []float64) {
					t.Helper()
					for i, w := range want.Col(j) {
						if !sameBits(got[i], w) {
							t.Fatalf("%s m=%d s=%d %s col %d row %d: %v, reference %v",
								sys.name, m, cols, form, j, i, got[i], w)
						}
					}
				}

				got := make([]float64, n)
				for j := 0; j < cols; j++ {
					s.ApplyMStep(got, r.Col(j), alphas)
					check("ApplyMStep", j, got)
				}
				for _, stride := range []int{cols, cols + 1} {
					ir := vec.NewIMulti(n, stride).Prefix(cols)
					irhat := vec.NewIMulti(n, stride).Prefix(cols)
					for j := 0; j < cols; j++ {
						ir.GatherCol(j, r.Col(j))
					}
					for _, impl := range impls {
						s.ApplyMStepInterleaved(irhat, ir, alphas, impl)
						for j := 0; j < cols; j++ {
							irhat.ScatterCol(j, got)
							check(fmt.Sprintf("ApplyMStepInterleaved/%s/stride %d", impl.Name, stride), j, got)
						}
					}
				}
			}
		}
	}
}

// TestRelaxedStepMatchesGroupBoundReference covers the strict-sweep path
// ω ≠ 1 takes (Step, which scans both sides of every row's diagonal).
func TestRelaxedStepMatchesGroupBoundReference(t *testing.T) {
	k, start, rhs := coloredPlate(t, 9, 9)
	s, err := NewMulticolorSSOR(k, start, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	ref := newGroupBoundSSOR(k, start, 1.3)
	for _, m := range []int{1, 2, 3} {
		alphas := []float64{1, 0.8, 1.2}[:m]
		got := make([]float64, len(rhs))
		want := make([]float64, len(rhs))
		s.ApplyMStep(got, rhs, alphas)
		ref.ApplyMStep(want, rhs, alphas)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("ω=1.3 m=%d row %d: %v, reference %v", m, i, got[i], want[i])
			}
		}
	}
}
