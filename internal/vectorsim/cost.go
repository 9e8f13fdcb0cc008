package vectorsim

import (
	"errors"
	"fmt"

	"repro/internal/sparse"
)

// ErrDegenerate reports a system the cost analysis cannot describe: no
// matrix, no rows, or no stored entries. Callers test for it with
// errors.Is instead of trusting a zero CostBreakdown.
var ErrDegenerate = errors.New("vectorsim: degenerate system")

// CostBreakdown decomposes one solve into the paper's eq. (4.1) quantities:
// T_m = Setup + N_m · (A + m·B).
type CostBreakdown struct {
	// Setup covers r⁰ = f − K·u⁰ and the initial preconditioner solve /
	// direction copy.
	Setup float64
	// A is the cost of one outer CG iteration excluding the
	// preconditioner: the K·p product, the three vector updates, the
	// convergence test, and the two inner products.
	A float64
	// B is the cost of one step of the m-step multicolor SSOR
	// preconditioner (one forward + one backward Conrad–Wallach
	// half-sweep pair).
	B float64
	// InnerProductShare is the fraction of A spent in inner products —
	// the bottleneck the paper's method attacks.
	InnerProductShare float64
	// MaxVectorLength is the per-color vector length v the paper tabulates.
	MaxVectorLength int
}

// storageByDiagonals captures what the CYBER implementation stores: the
// global diagonals of the colored matrix (for K·p, Madsen–Rodrigue–Karush)
// and, per color-block, the diagonal count (for the preconditioner sweeps).
type storageByDiagonals struct {
	spmvLengths []int   // vector length of each K·p triad
	lowerDiags  [][]int // per color c: diag counts of blocks B_cj, j < c
	upperDiags  [][]int // per color c: diag counts of blocks B_cj, j > c
	groupLens   []int
}

// analyzeStorage derives the diagonal structure of a multicolor-ordered
// matrix with group boundaries start.
func analyzeStorage(k *sparse.CSR, start []int) (*storageByDiagonals, error) {
	if k.Rows != k.Cols {
		return nil, fmt.Errorf("vectorsim: matrix must be square")
	}
	if len(start) < 2 || start[0] != 0 || start[len(start)-1] != k.Rows {
		return nil, fmt.Errorf("vectorsim: group boundaries %v do not cover [0,%d]", start, k.Rows)
	}
	ng := len(start) - 1
	st := &storageByDiagonals{
		spmvLengths: sparse.MustDIAFromCSR(k).OpLengths(),
		lowerDiags:  make([][]int, ng),
		upperDiags:  make([][]int, ng),
		groupLens:   make([]int, ng),
	}
	groupOf := func(idx int) int {
		for c := 0; c < ng; c++ {
			if idx < start[c+1] {
				return c
			}
		}
		return ng - 1
	}
	// Distinct within-block offsets per ordered block (c, j).
	blockOffsets := make(map[[2]int]map[int]bool)
	for i := 0; i < k.Rows; i++ {
		ci := groupOf(i)
		for p := k.RowPtr[i]; p < k.RowPtr[i+1]; p++ {
			j := k.ColIdx[p]
			cj := groupOf(j)
			if cj == ci {
				continue // diagonal block: handled as the divide
			}
			key := [2]int{ci, cj}
			if blockOffsets[key] == nil {
				blockOffsets[key] = map[int]bool{}
			}
			blockOffsets[key][(j-start[cj])-(i-start[ci])] = true
		}
	}
	for c := 0; c < ng; c++ {
		st.groupLens[c] = start[c+1] - start[c]
		for j := 0; j < ng; j++ {
			if j == c {
				continue
			}
			n := len(blockOffsets[[2]int{c, j}])
			if n == 0 {
				continue
			}
			if j < c {
				st.lowerDiags[c] = append(st.lowerDiags[c], n)
			} else {
				st.upperDiags[c] = append(st.upperDiags[c], n)
			}
		}
	}
	return st, nil
}

// Analyze computes the cost breakdown for the m-step multicolor SSOR PCG
// on a colored system under the given machine model. padLen, when positive,
// overrides the per-color vector length with the paper's padded storage
// length v = ⌈a²/3⌉ (constrained nodes are stored and masked by the control
// vector, so the pipelines stream the padded length).
func Analyze(model Model, k *sparse.CSR, start []int, padLen int) (CostBreakdown, error) {
	if err := model.Validate(); err != nil {
		return CostBreakdown{}, err
	}
	switch {
	case k == nil:
		return CostBreakdown{}, fmt.Errorf("%w: nil matrix", ErrDegenerate)
	case k.Rows == 0 || k.Cols == 0:
		return CostBreakdown{}, fmt.Errorf("%w: empty %d×%d matrix", ErrDegenerate, k.Rows, k.Cols)
	case k.NNZ() == 0:
		return CostBreakdown{}, fmt.Errorf("%w: matrix has no stored entries", ErrDegenerate)
	}
	st, err := analyzeStorage(k, start)
	if err != nil {
		return CostBreakdown{}, err
	}
	colorLen := func(c int) int {
		if padLen > 0 {
			return padLen
		}
		return st.groupLens[c]
	}
	fullLen := 0
	for c := range st.groupLens {
		fullLen += colorLen(c)
	}

	// K·p by diagonals: one linked triad per stored diagonal. When padding
	// is requested, scale each stored-diagonal length by the padding ratio.
	var spmv float64
	ratio := 1.0
	if padLen > 0 && k.Rows > 0 {
		ratio = float64(fullLen) / float64(k.Rows)
	}
	for _, l := range st.spmvLengths {
		spmv += model.VecOp(int(float64(l) * ratio))
	}

	// Outer iteration A: K·p, α denominator and ρ inner products, u and r
	// triads, direction update triad, convergence test (vector subtract,
	// vector abs/max reduce modeled as a vector op + scalar compare).
	ips := 2 * model.InnerProduct(fullLen)
	triads := 3 * model.VecOp(fullLen)
	conv := 2*model.VecOp(fullLen) + model.Scalar
	a := spmv + ips + triads + conv

	// Preconditioner step B: forward half-sweep touches each color's lower
	// blocks (one triad per stored block diagonal), then a triad for
	// y + α·r and a vector divide by D_c; the backward half-sweep mirrors
	// with upper blocks, skipping the last color's re-solve.
	var b float64
	ng := len(st.groupLens)
	for c := 0; c < ng; c++ {
		lc := colorLen(c)
		for _, nd := range st.lowerDiags[c] {
			b += float64(nd) * model.VecOp(lc)
		}
		b += 2 * model.VecOp(lc) // add y + α·r, divide by D_c
	}
	for c := ng - 2; c >= 0; c-- {
		lc := colorLen(c)
		for _, nd := range st.upperDiags[c] {
			b += float64(nd) * model.VecOp(lc)
		}
		b += 2 * model.VecOp(lc)
	}

	setup := spmv + model.VecOp(fullLen) + model.InnerProduct(fullLen) + model.VecOp(fullLen)

	maxLen := 0
	for c := range st.groupLens {
		if l := colorLen(c); l > maxLen {
			maxLen = l
		}
	}
	return CostBreakdown{
		Setup:             setup,
		A:                 a,
		B:                 b,
		InnerProductShare: ips / a,
		MaxVectorLength:   maxLen,
	}, nil
}

// Time evaluates the paper's eq. (4.1): T = Setup + N·(A + m·B).
func (c CostBreakdown) Time(iters, m int) float64 {
	return c.Setup + float64(iters)*(c.A+float64(m)*c.B)
}
